package tensor

import "fmt"

// ConvParams describes a 2-D convolution: kernel size, stride, and
// asymmetric padding. Dilation and groups are intentionally out of scope
// (the paper's models use neither).
type ConvParams struct {
	KH, KW int
	SH, SW int
	Pad    Pad2D
}

// OutSize returns the spatial output size of a convolution/pooling
// window operation over an input of height h and width w. The division
// floors (not truncates toward zero), so a window larger than the padded
// input correctly yields a non-positive size rather than 1.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = floorDiv(h+p.Pad.Top+p.Pad.Bottom-p.KH, p.SH) + 1
	ow = floorDiv(w+p.Pad.Left+p.Pad.Right-p.KW, p.SW) + 1
	return oh, ow
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv rounds the quotient towards +inf; b must be positive.
func ceilDiv(a, b int) int { return floorDiv(a+b-1, b) }

func (p ConvParams) check(x *Tensor) (n, c, h, w, oh, ow int) {
	n, c, h, w = x.shape.N(), x.shape.C(), x.shape.H(), x.shape.W()
	oh, ow = p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv %+v over %v yields non-positive output (%d,%d)", p, x.shape, oh, ow))
	}
	return n, c, h, w, oh, ow
}

// oxRange returns the output-x interval [oxLo, oxHi) whose input column
// ix = ox*SW - Pad.Left + kx lands inside [0, w), clamped to [0, ow].
// Precomputing it per (kx) row lets the im2col/col2im inner loops run
// without per-pixel bounds checks — and for stride 1 the interior
// becomes one contiguous copy. The range may be empty (a kernel column
// that reads only padding, as on narrow padded patches); callers then
// touch no source element.
func (p ConvParams) oxRange(kx, w, ow int) (oxLo, oxHi int) {
	oxLo, oxHi = p.Pad.Left-kx, w+p.Pad.Left-kx
	if p.SW != 1 {
		oxLo, oxHi = ceilDiv(oxLo, p.SW), ceilDiv(oxHi, p.SW)
	}
	oxLo = min(max(oxLo, 0), ow)
	return oxLo, max(min(oxHi, ow), oxLo)
}

// Im2ColArena lowers the convolution windows of x into a matrix of
// shape [C*KH*KW, N*OH*OW], drawn from the arena (nil falls back to
// plain allocation), so that convolution becomes a matrix multiply.
// Out-of-bounds (padding) positions contribute zeros.
func Im2ColArena(a *Arena, x *Tensor, p ConvParams) *Tensor {
	n, c, h, w, oh, ow := p.check(x)
	col := a.GetRaw(c*p.KH*p.KW, n*oh*ow)
	cols := n * oh * ow
	parallelRange(c*p.KH*p.KW, 1+parallelThreshold/cols, im2colArgs{
		cd: col.data, xd: x.data, p: p,
		n: n, c: c, h: h, w: w, oh: oh, ow: ow,
	}, im2colRows)
	return col
}

type im2colArgs struct {
	cd, xd             []float32
	p                  ConvParams
	n, c, h, w, oh, ow int
}

func im2colRows(t im2colArgs, lo, hi int) {
	p := t.p
	khkw := p.KH * p.KW
	cols := t.n * t.oh * t.ow
	for row := lo; row < hi; row++ {
		ch := row / khkw
		rem := row % khkw
		ky, kx := rem/p.KW, rem%p.KW
		oxLo, oxHi := p.oxRange(kx, t.w, t.ow)
		ixBase := oxLo*p.SW - p.Pad.Left + kx
		dst := t.cd[row*cols : (row+1)*cols]
		for b := 0; b < t.n; b++ {
			src := t.xd[(b*t.c+ch)*t.h*t.w : (b*t.c+ch+1)*t.h*t.w]
			base := b * t.oh * t.ow
			for oy := 0; oy < t.oh; oy++ {
				iy := oy*p.SH - p.Pad.Top + ky
				drow := dst[base+oy*t.ow : base+(oy+1)*t.ow]
				if iy < 0 || iy >= t.h {
					clear(drow)
					continue
				}
				srow := src[iy*t.w : (iy+1)*t.w]
				clear(drow[:oxLo])
				clear(drow[oxHi:])
				if oxLo == oxHi {
					continue
				}
				if p.SW == 1 {
					copy(drow[oxLo:oxHi], srow[ixBase:ixBase+oxHi-oxLo])
				} else {
					ix := ixBase
					for ox := oxLo; ox < oxHi; ox++ {
						drow[ox] = srow[ix]
						ix += p.SW
					}
				}
			}
		}
	}
}

// Col2ImArena is the adjoint of Im2ColArena: it scatters (accumulates)
// a [C*KH*KW, N*OH*OW] matrix back into an [N,C,H,W] tensor drawn from
// the arena.
func Col2ImArena(a *Arena, col *Tensor, p ConvParams, n, c, h, w int) *Tensor {
	oh, ow := p.OutSize(h, w)
	cols := n * oh * ow
	if !col.shape.Equal(Shape{c * p.KH * p.KW, cols}) {
		panic(fmt.Sprintf("tensor.Col2Im: col shape %v does not match %+v over (%d,%d,%d,%d)", col.shape, p, n, c, h, w))
	}
	out := a.Get(n, c, h, w) // zeroed: the scatter accumulates
	// Parallelize over channels: each channel's scatter touches a
	// disjoint region of the output.
	perCh := p.KH * p.KW * cols
	parallelRange(c, 1+parallelThreshold/perCh, col2imArgs{
		cd: col.data, od: out.data, p: p,
		n: n, c: c, h: h, w: w, oh: oh, ow: ow,
	}, col2imChans)
	return out
}

type col2imArgs struct {
	cd, od             []float32
	p                  ConvParams
	n, c, h, w, oh, ow int
}

func col2imChans(t col2imArgs, lo, hi int) {
	p := t.p
	cols := t.n * t.oh * t.ow
	for ch := lo; ch < hi; ch++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				row := (ch*p.KH+ky)*p.KW + kx
				oxLo, oxHi := p.oxRange(kx, t.w, t.ow)
				if oxLo == oxHi {
					continue // this kernel column reads only padding
				}
				ixBase := oxLo*p.SW - p.Pad.Left + kx
				src := t.cd[row*cols : (row+1)*cols]
				for b := 0; b < t.n; b++ {
					dst := t.od[(b*t.c+ch)*t.h*t.w : (b*t.c+ch+1)*t.h*t.w]
					base := b * t.oh * t.ow
					for oy := 0; oy < t.oh; oy++ {
						iy := oy*p.SH - p.Pad.Top + ky
						if iy < 0 || iy >= t.h {
							continue
						}
						srow := src[base+oy*t.ow : base+(oy+1)*t.ow]
						drow := dst[iy*t.w : (iy+1)*t.w]
						if p.SW == 1 {
							drow = drow[ixBase:]
							for i, v := range srow[oxLo:oxHi] {
								drow[i] += v
							}
						} else {
							ix := ixBase
							for ox := oxLo; ox < oxHi; ox++ {
								drow[ix] += srow[ox]
								ix += p.SW
							}
						}
					}
				}
			}
		}
	}
}

// Conv2DInto computes a 2-D convolution into a caller-supplied dst. x
// is [N,Cin,H,W], weight is [Cout,Cin,KH,KW], bias (may be nil) is
// [Cout]; dst is [N,Cout,OH,OW]. It is an implicit GEMM — the
// algorithmic shape of cuDNN's IMPLICIT_GEMM: weight-as-[Cout,
// Cin*KH*KW] times the im2col matrix of x, whose panels the GEMM packs
// straight from x (packBConv), so no column matrix is ever built. The
// only scratch drawn from the arena is the [Cout, N*OH*OW] product.
// The result is bit-identical to Im2ColArena followed by Gemm, and —
// the GEMM being shape-invariant — to the same convolution over any
// batch prefix or band of output rows. dst must not alias x.
func Conv2DInto(a *Arena, dst, x, weight, bias *Tensor, p ConvParams) {
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	if !weight.shape.Equal(Shape{cout, cin, p.KH, p.KW}) {
		panic(fmt.Sprintf("tensor.Conv2DInto: weight %v incompatible with input %v and %+v", weight.shape, x.shape, p))
	}
	if len(dst.data) != n*cout*oh*ow {
		panic(fmt.Sprintf("tensor.Conv2DInto: dst %v, want %d elements", dst.shape, n*cout*oh*ow))
	}
	prod := a.GetRaw(cout, n*oh*ow)
	gemm(prod.data, weight.data, gemmB{d: x.data, conv: true, p: p, c: cin, h: h, w: w, oh: oh, ow: ow},
		cout, cin*p.KH*p.KW, n*oh*ow, 1, 0, false)
	// prod is [Cout, N*OH*OW]; transpose the leading two logical dims
	// into NCHW order and add bias.
	hw := oh * ow
	var bd []float32
	if bias != nil {
		bd = bias.data
	}
	parallelRange(n*cout, 1+parallelThreshold/hw, convNCHWArgs{
		pd: prod.data, od: dst.data, bd: bd, n: n, cout: cout, hw: hw,
	}, convToNCHW)
	a.Put(prod)
}

// packBConv packs the NR-column panels [lo, hi) of the kc x nc block at
// (pc, jc) of the implicit im2col matrix of b.d. Row r is (ci, ky, kx),
// column c is (img, oy, ox), and the element is
// x[img][ci][oy·SH−Top+ky][ox·SW−Left+kx], or 0 in the padding: exactly
// what Im2ColArena places at (r, c). The k-rows are taken in runs that
// share (ci, ky) — up to packKX consecutive kx — so each run reads one
// input row per output row and writes adjacent panel rows. The columns
// are walked incrementally across the panels, one output row at a time.
// A stretch of a row inside one panel is zeros for the padding around
// an in-bounds run: a copy at stride 1 (one 16-float move when it fills
// the panel row), a gather otherwise. The padding runs are a column or
// two, where a call to clear costs more than it moves, so they are
// element loops.
func packBConv(dst []float32, b gemmB, pc, jc, kc, nc, lo, hi int) {
	p := b.p
	khkw, hw, ohw := p.KH*p.KW, b.h*b.w, b.oh*b.ow
	j0, j1 := lo*gemmNR, min(hi*gemmNR, nc)
	c0 := jc + j0
	img0, oy0, ox0 := c0/ohw, c0%ohw/b.ow, c0%b.ow
	stride := kc * gemmNR // from a lane of one panel to the same lane of the next
	var oxLo, oxHi [packKX]int
	for r := 0; r < kc; {
		ci, ky, kx0 := (pc+r)/khkw, (pc+r)%khkw/p.KW, (pc+r)%p.KW
		g := min(p.KW-kx0, kc-r, packKX) // k-rows [r, r+g) are kx = kx0 … kx0+g−1
		for t := 0; t < g; t++ {
			oxLo[t], oxHi[t] = p.oxRange(kx0+t, b.w, b.ow)
		}
		img, oy, ox := img0, oy0, ox0
		o, lane := lo*stride+r*gemmNR, 0 // packed offset of column j in k-row r, and j % NR
		for j := j0; j < j1; {
			seg := min(b.ow-ox, j1-j) // columns ox .. ox+seg of output row (img, oy)
			var src []float32         // that row's input row; nil in the padding
			if iy := oy*p.SH - p.Pad.Top + ky; iy >= 0 && iy < b.h {
				base := (img*b.c+ci)*hw + iy*b.w
				src = b.d[base : base+b.w]
			}
			for end := j + seg; j < end; {
				l := min(end-j, gemmNR-lane)
				for t := 0; t < g; t++ {
					out := dst[o+t*gemmNR : o+t*gemmNR+l]
					// out[i] is column ox+i; [s, e) is its in-bounds part.
					s, e := 0, 0
					if src != nil {
						s = min(max(oxLo[t]-ox, 0), l)
						e = max(min(oxHi[t]-ox, l), s)
					}
					ix := (ox+s)*p.SW - p.Pad.Left + kx0 + t
					if e-s == gemmNR && p.SW == 1 {
						v := *(*[gemmNR]float32)(src[ix:])
						*(*[gemmNR]float32)(out) = v
						continue
					}
					for i := 0; i < s; i++ {
						out[i] = 0
					}
					if p.SW == 1 && s < e {
						copy(out[s:e], src[ix:ix+e-s])
					} else {
						for i := s; i < e; i++ {
							out[i] = src[ix]
							ix += p.SW
						}
					}
					for i := e; i < l; i++ {
						out[i] = 0
					}
				}
				j, ox, o, lane = j+l, ox+l, o+l, lane+l
				if lane == gemmNR {
					o, lane = o+stride-gemmNR, 0
				}
			}
			if ox == b.ow {
				ox = 0
				if oy++; oy == b.oh {
					oy = 0
					img++
				}
			}
		}
		if j1 == nc && lane != 0 { // the last panel's column tail
			for t := 0; t < g; t++ {
				for i := o + t*gemmNR; i < o+t*gemmNR+gemmNR-lane; i++ {
					dst[i] = 0
				}
			}
		}
		r += g
	}
}

// packKX bounds the kernel columns packBConv packs together, so their
// output-x ranges fit in a stack array; wider kernels take several runs.
const packKX = 8

type convNCHWArgs struct {
	pd, od, bd  []float32
	n, cout, hw int
}

func convToNCHW(t convNCHWArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		b, co := i/t.cout, i%t.cout
		var bv float32
		if t.bd != nil {
			bv = t.bd[co]
		}
		src := t.pd[co*t.n*t.hw+b*t.hw : co*t.n*t.hw+(b+1)*t.hw]
		dst := t.od[i*t.hw : (i+1)*t.hw]
		for j := range dst {
			dst[j] = src[j] + bv
		}
	}
}

// Conv2DBackwardArena computes the gradients of a convolution. gradOut
// is [N,Cout,OH,OW]. It returns gradX ([N,Cin,H,W]) and accumulates
// into gradW and gradB (gradB may be nil when the convolution has no
// bias). needGradX can be false for the first layer to skip the col2im
// pass. All scratch and the returned gradient come from the arena.
func Conv2DBackwardArena(a *Arena, x, weight *Tensor, gradOut *Tensor, p ConvParams, gradW, gradB *Tensor, needGradX bool) *Tensor {
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	hw := oh * ow
	// Reorder gradOut from NCHW to [Cout, N*OH*OW].
	g := a.GetRaw(cout, n*hw)
	parallelRange(n*cout, 1+parallelThreshold/hw, convGradReorderArgs{
		gd: g.data, god: gradOut.data, n: n, cout: cout, hw: hw,
	}, convGradReorder)
	if gradB != nil {
		// Each output channel's bias gradient is an independent row
		// reduction, so the satellite parallelization is over cout.
		parallelRange(cout, 1+parallelThreshold/(n*hw), convGradBArgs{
			gd: g.data, gbd: gradB.data, nhw: n * hw,
		}, convGradB)
	}
	col := Im2ColArena(a, x, p)
	// gradW (+)= g @ colᵀ, accumulated in place by the beta=1 GEMM
	// (dropping the former gw temporary and its extra AXPY pass).
	gemm(gradW.data, g.data, denseB(col.data, true), cout, n*hw, cin*p.KH*p.KW, 1, 1, false)
	if !needGradX {
		a.Put(col)
		a.Put(g)
		return nil
	}
	// gradCol = weightᵀ @ g, then scatter with Col2Im.
	gradCol := col // same shape as the im2col matrix: reuse it directly
	gemm(gradCol.data, weight.data, denseB(g.data, false), cin*p.KH*p.KW, cout, n*hw, 1, 0, true)
	a.Put(g)
	gx := Col2ImArena(a, gradCol, p, n, cin, h, w)
	a.Put(gradCol)
	return gx
}

type convGradReorderArgs struct {
	gd, god     []float32
	n, cout, hw int
}

func convGradReorder(t convGradReorderArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		b, co := i/t.cout, i%t.cout
		copy(t.gd[co*t.n*t.hw+b*t.hw:co*t.n*t.hw+(b+1)*t.hw], t.god[i*t.hw:(i+1)*t.hw])
	}
}

type convGradBArgs struct {
	gd, gbd []float32
	nhw     int
}

func convGradB(t convGradBArgs, lo, hi int) {
	for co := lo; co < hi; co++ {
		var s float64
		for _, v := range t.gd[co*t.nhw : (co+1)*t.nhw] {
			s += float64(v)
		}
		t.gbd[co] += float32(s)
	}
}
