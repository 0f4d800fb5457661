package tensor

// FFT-based convolution: the fourth conv algorithm next to direct,
// im2col+GEMM and Winograd. Per PAPERS.md ("Acceleration of CNN Using
// FFT-Based Split Convolutions"), frequency-domain convolution
// complements spatially split patches at large kernels and channel
// counts: arithmetic is O(N² log N) per plane regardless of kernel
// size, so the advantage over im2col grows with KH·KW.
//
// The transform is a 2-D real FFT built from an iterative radix-2
// decimation-in-time complex FFT over power-of-two padded tiles:
//
//   - rows are transformed two at a time with the classic packing
//     trick (z = rowA + i·rowB, one complex FFT, Hermitian unpack),
//   - only the non-redundant half-spectrum (PW/2+1 columns) is kept,
//     stored column-contiguous so the column FFTs are unit-stride,
//   - cross-correlation (what conv layers actually compute) is the
//     pointwise product Ŷ = X̂ ⊙ conj(Ŵ),
//   - one inverse transform per (batch, cout) pair after accumulating
//     over input channels in the frequency domain.
//
// Zero-padding the tile to nextpow2(H+PadT+PadB) makes the circular
// correlation exact for the linear one: every output row index
// oy ≤ Hp−KH stays below the wrap-around point. Stride > 1 is not
// supported (computing the dense output and discarding most of it
// forfeits the arithmetic advantage); the dispatcher never routes
// strided shapes here.

import (
	"fmt"
	"math"
	"sync"
)

// FFTConvTolerance is the pinned accuracy contract of the FFT backend:
// the maximum |Conv2DFFTInto − Conv2DInto| over any layer, relative to the
// largest output magnitude of that layer. Exactness tests in this
// package and the autotune property sweep assert it; observed error on
// randomized sweeps is ~25x below this bound (forward + inverse
// transform round-off grows with log(tile), accumulation over Cin is
// frequency-domain and benefits from the same cancellation as the
// spatial sum).
const FFTConvTolerance = 1e-4

// FFTConvApplies reports whether the FFT path handles the geometry:
// any kernel and padding, stride 1.
func FFTConvApplies(p ConvParams) bool { return p.SH == 1 && p.SW == 1 }

// fftPlan holds the precomputed bit-reversal permutation and per-stage
// twiddle factors for a power-of-two complex FFT. Twiddles are
// generated in float64 and rounded once, so plan reuse is bit-stable.
type fftPlan struct {
	n   int
	rev []int32
	tw  []float32 // forward twiddles: (re,im) pairs, n-1 total
}

var fftPlans = struct {
	mu sync.RWMutex
	m  map[int]*fftPlan
}{m: make(map[int]*fftPlan)}

func getFFTPlan(n int) *fftPlan {
	fftPlans.mu.RLock()
	p := fftPlans.m[n]
	fftPlans.mu.RUnlock()
	if p != nil {
		return p
	}
	p = newFFTPlan(n)
	fftPlans.mu.Lock()
	if q := fftPlans.m[n]; q != nil {
		p = q
	} else {
		fftPlans.m[n] = p
	}
	fftPlans.mu.Unlock()
	return p
}

func newFFTPlan(n int) *fftPlan {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	rev := make([]int32, n)
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		rev[i] = int32(r)
	}
	tw := make([]float32, 0, 2*(n-1))
	for length := 2; length <= n; length <<= 1 {
		for j := 0; j < length/2; j++ {
			th := 2 * math.Pi * float64(j) / float64(length)
			tw = append(tw, float32(math.Cos(th)), float32(-math.Sin(th)))
		}
	}
	return &fftPlan{n: n, rev: rev, tw: tw}
}

// fftInPlace runs an in-place radix-2 DIT FFT over d, an interleaved
// (re,im) complex vector of plan length. inverse conjugates the
// twiddles but does NOT scale: callers fold the 1/(PH·PW) factor into
// the final output extraction.
func fftInPlace(d []float32, p *fftPlan, inverse bool) {
	n := p.n
	for i, rv := range p.rev {
		j := int(rv)
		if j > i {
			d[2*i], d[2*j] = d[2*j], d[2*i]
			d[2*i+1], d[2*j+1] = d[2*j+1], d[2*i+1]
		}
	}
	sign := float32(1)
	if inverse {
		sign = -1
	}
	off := 0
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		tw := p.tw[2*off:]
		for start := 0; start < n; start += length {
			for j := 0; j < half; j++ {
				wr, wi := tw[2*j], sign*tw[2*j+1]
				a := 2 * (start + j)
				b := a + 2*half
				yr, yi := d[b], d[b+1]
				tr := yr*wr - yi*wi
				ti := yr*wi + yi*wr
				xr, xi := d[a], d[a+1]
				d[a], d[a+1] = xr+tr, xi+ti
				d[b], d[b+1] = xr-tr, xi-ti
			}
		}
		off += half
	}
}

// fftPow2 returns the smallest power of two >= n, floored at 2 (the
// row-pairing trick and the Hermitian index arithmetic need even,
// power-of-two extents).
func fftPow2(n int) int {
	c := 2
	for c < n {
		c <<= 1
	}
	return c
}

// rfft2 computes the 2-D DFT of the real ph×pw tile into the
// column-contiguous half-spectrum dst: complex bin (k, y) — column
// frequency k ∈ [0, pw/2], row index y — lives at dst[2*(k*ph+y)].
// z is caller scratch of 2*pw floats.
func rfft2(dst, tile []float32, ph, pw, pwh int, rowPlan, colPlan *fftPlan, z []float32) {
	for y := 0; y < ph; y += 2 {
		rowA := tile[y*pw : (y+1)*pw]
		rowB := tile[(y+1)*pw : (y+2)*pw]
		for k := 0; k < pw; k++ {
			z[2*k] = rowA[k]
			z[2*k+1] = rowB[k]
		}
		fftInPlace(z, rowPlan, false)
		// Unpack Z = A + i·B via Hermitian symmetry of the real rows:
		// A[k] = (Z[k]+conj(Z[pw−k]))/2, B[k] = −i(Z[k]−conj(Z[pw−k]))/2.
		for k := 0; k < pwh; k++ {
			kr := (pw - k) & (pw - 1)
			zr, zi := z[2*k], z[2*k+1]
			cr, ci := z[2*kr], -z[2*kr+1]
			base := (k*ph + y) * 2
			dst[base], dst[base+1] = 0.5*(zr+cr), 0.5*(zi+ci)
			dst[base+2], dst[base+3] = 0.5*(zi-ci), 0.5*(cr-zr)
		}
	}
	for k := 0; k < pwh; k++ {
		fftInPlace(dst[k*ph*2:(k+1)*ph*2], colPlan, false)
	}
}

// irfft2 inverts rfft2 into the real ph×pw tile, destroying the
// half-spectrum f in the process. No scaling is applied: the caller
// multiplies by 1/(ph·pw) when extracting the output window.
func irfft2(tile, f []float32, ph, pw, pwh int, rowPlan, colPlan *fftPlan, z []float32) {
	for k := 0; k < pwh; k++ {
		fftInPlace(f[k*ph*2:(k+1)*ph*2], colPlan, true)
	}
	for y := 0; y < ph; y += 2 {
		// Re-pack Z = A + i·B, reconstructing the redundant column
		// frequencies k ∈ (pw/2, pw) from conj(A[pw−k]), conj(B[pw−k]).
		for k := 0; k < pwh; k++ {
			base := (k*ph + y) * 2
			ar, ai := f[base], f[base+1]
			br, bi := f[base+2], f[base+3]
			z[2*k] = ar - bi
			z[2*k+1] = ai + br
		}
		for k := pwh; k < pw; k++ {
			base := ((pw-k)*ph + y) * 2
			ar, ai := f[base], f[base+1]
			br, bi := f[base+2], f[base+3]
			z[2*k] = ar + bi
			z[2*k+1] = br - ai
		}
		fftInPlace(z, rowPlan, true)
		rowA := tile[y*pw : (y+1)*pw]
		rowB := tile[(y+1)*pw : (y+2)*pw]
		for k := 0; k < pw; k++ {
			rowA[k] = z[2*k]
			rowB[k] = z[2*k+1]
		}
	}
}

// Conv2DFFTInto computes a stride-1 convolution via frequency-domain
// cross-correlation into a caller-supplied dst of shape [N,Cout,OH,OW];
// the result equals Conv2DInto's within FFTConvTolerance. All workspace
// cycles through the scratch pool, so a warmed-up loop allocates
// nothing. dst must not alias x.
func Conv2DFFTInto(dst, x, weight, bias *Tensor, p ConvParams) {
	if !FFTConvApplies(p) {
		panic("tensor.Conv2DFFT: geometry not supported (stride must be 1)")
	}
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	if !weight.shape.Equal(Shape{cout, cin, p.KH, p.KW}) {
		panic(fmt.Sprintf("tensor.Conv2DFFT: weight %v incompatible with input %v and %+v", weight.shape, x.shape, p))
	}
	if len(dst.data) != n*cout*oh*ow {
		panic(fmt.Sprintf("tensor.Conv2DFFTInto: dst %v, want %d elements", dst.shape, n*cout*oh*ow))
	}

	ph := fftPow2(h + p.Pad.Top + p.Pad.Bottom)
	pw := fftPow2(w + p.Pad.Left + p.Pad.Right)
	pwh := pw/2 + 1
	grid := 2 * ph * pwh
	rowPlan := getFFTPlan(pw)
	colPlan := getFFTPlan(ph)

	// Materialize both spectra up front: X̂ for all N·Cin input planes
	// (placed at the padding offset inside the tile) and Ŵ for all
	// Cout·Cin filter taps (placed at the origin).
	xhat := getScratch(n * cin * grid)
	what := getScratch(cout * cin * grid)
	planeWork := 1 + parallelThreshold/(ph*pw)
	parallelRange(n*cin, planeWork, fftFwdArgs{
		out: xhat, src: x.data, h: h, w: w, offY: p.Pad.Top, offX: p.Pad.Left,
		ph: ph, pw: pw, pwh: pwh, grid: grid, rowPlan: rowPlan, colPlan: colPlan,
	}, fftForwardTiles)
	parallelRange(cout*cin, planeWork, fftFwdArgs{
		out: what, src: weight.data, h: p.KH, w: p.KW,
		ph: ph, pw: pw, pwh: pwh, grid: grid, rowPlan: rowPlan, colPlan: colPlan,
	}, fftForwardTiles)

	var bd []float32
	if bias != nil {
		bd = bias.data
	}
	parallelRange(n*cout, 1+parallelThreshold/(cin*ph*pw), fftAccArgs{
		xhat: xhat, what: what, od: dst.data, bd: bd,
		cin: cin, cout: cout, oh: oh, ow: ow,
		ph: ph, pw: pw, pwh: pwh, grid: grid, rowPlan: rowPlan, colPlan: colPlan,
	}, fftAccumulate)

	putScratch(xhat)
	putScratch(what)
}

type fftFwdArgs struct {
	out, src          []float32
	h, w, offY, offX  int
	ph, pw, pwh, grid int
	rowPlan, colPlan  *fftPlan
}

func fftForwardTiles(t fftFwdArgs, lo, hi int) {
	tile := getScratch(t.ph * t.pw)
	z := getScratch(2 * t.pw)
	for i := lo; i < hi; i++ {
		src := t.src[i*t.h*t.w : (i+1)*t.h*t.w]
		clear(tile)
		for y := 0; y < t.h; y++ {
			copy(tile[(y+t.offY)*t.pw+t.offX:], src[y*t.w:(y+1)*t.w])
		}
		rfft2(t.out[i*t.grid:(i+1)*t.grid], tile, t.ph, t.pw, t.pwh, t.rowPlan, t.colPlan, z)
	}
	putScratch(tile)
	putScratch(z)
}

type fftAccArgs struct {
	xhat, what, od, bd []float32
	cin, cout, oh, ow  int
	ph, pw, pwh, grid  int
	rowPlan, colPlan   *fftPlan
}

func fftAccumulate(t fftAccArgs, lo, hi int) {
	acc := getScratch(t.grid)
	tile := getScratch(t.ph * t.pw)
	z := getScratch(2 * t.pw)
	scale := float32(1 / float64(t.ph*t.pw))
	for i := lo; i < hi; i++ {
		b, co := i/t.cout, i%t.cout
		// Ŷ = Σ_ci X̂ ⊙ conj(Ŵ): correlation, not convolution — conv
		// layers do not flip the kernel.
		for ci := 0; ci < t.cin; ci++ {
			xh := t.xhat[(b*t.cin+ci)*t.grid : (b*t.cin+ci+1)*t.grid]
			wh := t.what[(co*t.cin+ci)*t.grid : (co*t.cin+ci+1)*t.grid]
			if ci == 0 {
				for j := 0; j < t.grid; j += 2 {
					xr, xi := xh[j], xh[j+1]
					wr, wi := wh[j], wh[j+1]
					acc[j] = xr*wr + xi*wi
					acc[j+1] = xi*wr - xr*wi
				}
			} else {
				for j := 0; j < t.grid; j += 2 {
					xr, xi := xh[j], xh[j+1]
					wr, wi := wh[j], wh[j+1]
					acc[j] += xr*wr + xi*wi
					acc[j+1] += xi*wr - xr*wi
				}
			}
		}
		irfft2(tile, acc, t.ph, t.pw, t.pwh, t.rowPlan, t.colPlan, z)
		var bv float32
		if t.bd != nil {
			bv = t.bd[co]
		}
		dst := t.od[i*t.oh*t.ow : (i+1)*t.oh*t.ow]
		for oy := 0; oy < t.oh; oy++ {
			srow := tile[oy*t.pw : oy*t.pw+t.ow]
			drow := dst[oy*t.ow : (oy+1)*t.ow]
			for ox, v := range srow {
				drow[ox] = v*scale + bv
			}
		}
	}
	putScratch(acc)
	putScratch(tile)
	putScratch(z)
}

// FFTConvWorkspaceBytes returns the scratch footprint of Conv2DFFT:
// both materialized spectra plus the per-worker accumulator/tile/row
// buffers. This is the FFT analogue of WinogradWorkspaceBytes and what
// the dispatcher checks against the workspace cap — large-channel
// layers whose spectra would dwarf the tensors themselves are simply
// not FFT candidates.
func FFTConvWorkspaceBytes(x Shape, cout int, p ConvParams) int64 {
	ph := int64(fftPow2(x.H() + p.Pad.Top + p.Pad.Bottom))
	pw := int64(fftPow2(x.W() + p.Pad.Left + p.Pad.Right))
	grid := 2 * ph * (pw/2 + 1)
	n, cin := int64(x.N()), int64(x.C())
	perWorker := grid + ph*pw + 2*pw
	return 4 * (grid*cin*(n+int64(cout)) + int64(Parallelism())*perWorker)
}
