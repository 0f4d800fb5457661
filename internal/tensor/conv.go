package tensor

import (
	"bytes"
	"fmt"
	"sync"
	"unsafe"
)

// ConvParams describes a 2-D convolution: kernel size, stride, and
// asymmetric padding. Dilation and groups are intentionally out of scope
// (the paper's models use neither).
type ConvParams struct {
	KH, KW int
	SH, SW int
	Pad    Pad2D
}

// Rows returns the window along the height axis.
func (p ConvParams) Rows() Window1D {
	return Window1D{K: p.KH, S: p.SH, Pb: p.Pad.Top, Pe: p.Pad.Bottom}
}

// Cols returns the window along the width axis.
func (p ConvParams) Cols() Window1D {
	return Window1D{K: p.KW, S: p.SW, Pb: p.Pad.Left, Pe: p.Pad.Right}
}

// OutSize returns the spatial output size of a convolution/pooling
// window operation over an input of height h and width w.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	return p.Rows().OutSize(h), p.Cols().OutSize(w)
}

// Window1D is a window-based operation along one spatial axis: kernel
// size K, stride S, and begin/end padding Pb/Pe — the paper's
// Op(X, k, s, p). It is the one home of §3.1's window arithmetic, which
// the Split-CNN transform (internal/core) and the distributed halo plan
// (internal/distserve) share. Output o's window reads the virtual input
// rows [o·S − Pb, o·S − Pb + K); rows outside [0, l) are padding.
type Window1D struct {
	K, S, Pb, Pe int
}

// OutSize returns the output length over input length l. The division
// floors (not truncates toward zero), so a window larger than the
// padded input correctly yields a non-positive length rather than 1.
func (w Window1D) OutSize(l int) int {
	span := l + w.Pb + w.Pe - w.K
	if span < 0 {
		span -= w.S - 1
	}
	return span/w.S + 1
}

// LowerBound is Equation 1: the first virtual input row output o's
// window reads, the smallest legal input split point for output split o.
func (w Window1D) LowerBound(o int) int { return o*w.S - w.Pb }

// UpperBound is Equation 2: one past the last virtual input row output
// o−1's window reads, the largest legal input split point for output
// split o. So outputs [lo, hi) read rows [LowerBound(lo), UpperBound(hi)).
func (w Window1D) UpperBound(o int) int { return (o-1)*w.S + w.K - w.Pb }

// BandPad is Equation 5 (begin formula corrected; see the core package
// doc): the padding (b, e) under which the input rows [inLo, inHi) of an
// axis of length l yield exactly the outputs [outLo, outHi), each from
// the rows the unsplit op's window reads. At the ends of the axis it is
// the op's own padding; inside, it is how far the band's windows reach
// past the input band, and a negative value crops.
func (w Window1D) BandPad(outLo, outHi, inLo, inHi, l int) (b, e int) {
	b = inLo - w.LowerBound(outLo)
	if inHi == l && outHi == w.OutSize(l) {
		return b, w.Pe
	}
	return b, w.UpperBound(outHi) - inHi
}

func (p ConvParams) check(x *Tensor) (n, c, h, w, oh, ow int) {
	n, c, h, w = x.shape.N(), x.shape.C(), x.shape.H(), x.shape.W()
	oh, ow = p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv %+v over %v yields non-positive output (%d,%d)", p, x.shape, oh, ow))
	}
	return n, c, h, w, oh, ow
}

// paddedSize returns the rows and columns (hp, wp) an (oh, ow) output's
// windows span: the planes padInput builds.
func (p ConvParams) paddedSize(oh, ow int) (hp, wp int) {
	return (oh-1)*p.SH + p.KH, (ow-1)*p.SW + p.KW
}

// Im2ColArena lowers the convolution windows of x into a matrix of
// shape [C*KH*KW, N*OH*OW], drawn from the arena (nil falls back to
// plain allocation), so that convolution becomes a matrix multiply.
// It reads through the zero-padded copy of x that Conv2DInto builds, so
// padding positions contribute zeros with no bounds checks.
func Im2ColArena(a *Arena, x *Tensor, p ConvParams) *Tensor {
	n, c, h, w, oh, ow := p.check(x)
	hp, wp := p.paddedSize(oh, ow)
	col := a.GetRaw(c*p.KH*p.KW, n*oh*ow)
	padded := a.GetRaw(n*c, hp, wp)
	padInput(padded.data, x.data, n*c, h, w, hp, wp, p.Pad)
	cols := n * oh * ow
	parallelRange(c*p.KH*p.KW, 1+parallelThreshold/cols, im2colArgs{
		cd: col.data, pd: padded.data, p: p,
		n: n, c: c, hp: hp, wp: wp, oh: oh, ow: ow,
	}, im2colRows)
	a.Put(padded)
	return col
}

// im2colArgs carries one Im2ColArena or Col2ImArena call through
// parallelRange: cd is the [C*KH*KW, N*OH*OW] matrix and pd the
// [N*C, hp, wp] padded planes.
type im2colArgs struct {
	cd, pd               []float32
	p                    ConvParams
	n, c, hp, wp, oh, ow int
}

func im2colRows(t im2colArgs, lo, hi int) {
	p := t.p
	khkw := p.KH * p.KW
	cols := t.n * t.oh * t.ow
	for row := lo; row < hi; row++ {
		ch, ky, kx := row/khkw, row%khkw/p.KW, row%p.KW
		dst := t.cd[row*cols : (row+1)*cols]
		for b := 0; b < t.n; b++ {
			src := t.pd[(b*t.c+ch)*t.hp*t.wp:]
			for oy := 0; oy < t.oh; oy++ {
				srow := src[(oy*p.SH+ky)*t.wp+kx:]
				if p.SW == 1 {
					copy(dst[:t.ow], srow)
				} else {
					for ox := range dst[:t.ow] {
						dst[ox] = srow[ox*p.SW]
					}
				}
				dst = dst[t.ow:]
			}
		}
	}
}

// Col2ImArena is the adjoint of Im2ColArena: it scatters (accumulates)
// a [C*KH*KW, N*OH*OW] matrix back into an [N,C,H,W] tensor drawn from
// the arena. The scatter lands in zeroed padded planes, in (channel,
// ky, kx, image, oy, ox) order, which padInput then crops to x's rows
// and columns.
func Col2ImArena(a *Arena, col *Tensor, p ConvParams, n, c, h, w int) *Tensor {
	oh, ow := p.OutSize(h, w)
	cols := n * oh * ow
	if !col.shape.Equal(Shape{c * p.KH * p.KW, cols}) {
		panic(fmt.Sprintf("tensor.Col2Im: col shape %v does not match %+v over (%d,%d,%d,%d)", col.shape, p, n, c, h, w))
	}
	hp, wp := p.paddedSize(oh, ow)
	padded := a.Get(n*c, hp, wp) // zeroed: the scatter accumulates
	// Parallelize over channels: each channel's scatter touches a
	// disjoint set of planes.
	perCh := p.KH * p.KW * cols
	parallelRange(c, 1+parallelThreshold/perCh, im2colArgs{
		cd: col.data, pd: padded.data, p: p,
		n: n, c: c, hp: hp, wp: wp, oh: oh, ow: ow,
	}, col2imChans)
	out := a.GetRaw(n, c, h, w)
	padInput(out.data, padded.data, n*c, hp, wp, h, w, Pad2D{Top: -p.Pad.Top, Left: -p.Pad.Left})
	a.Put(padded)
	return out
}

func col2imChans(t im2colArgs, lo, hi int) {
	p := t.p
	cols := t.n * t.oh * t.ow
	for ch := lo; ch < hi; ch++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				row := (ch*p.KH+ky)*p.KW + kx
				src := t.cd[row*cols : (row+1)*cols]
				for b := 0; b < t.n; b++ {
					dst := t.pd[(b*t.c+ch)*t.hp*t.wp:]
					for oy := 0; oy < t.oh; oy++ {
						drow, srow := dst[(oy*p.SH+ky)*t.wp+kx:], src[:t.ow]
						if p.SW == 1 {
							drow = drow[:len(srow)]
							for ox, v := range srow {
								drow[ox] += v
							}
						} else {
							for ox, v := range srow {
								drow[ox*p.SW] += v
							}
						}
						src = src[t.ow:]
					}
				}
			}
		}
	}
}

// Conv2DInto computes a 2-D convolution into a caller-supplied dst. x
// is [N,Cin,H,W], weight is [Cout,Cin,KH,KW], bias (may be nil) is
// [Cout]; dst is [N,Cout,OH,OW]. dst must not alias x. It packs the
// weights on every call: Conv2DCached with no cache.
func Conv2DInto(a *Arena, dst, x, weight, bias *Tensor, p ConvParams) {
	Conv2DCached(a, dst, x, weight, bias, p, nil)
}

// Conv2DCached is Conv2DInto reading its packed weights from c (nil:
// pack per call), which packs them only when the weights' bits changed.
//
// It is an implicit GEMM that packs only the weights: they are copied
// into NR-wide k-major panels over Cout (O(Cout·K), independent of batch
// and map size), and the register tile reads its MR output pixels' input
// windows where they lie, in one zero-padded arena copy of x laid out
// as x is, through a table of window offsets. So every stride, kernel
// size, map width and batch crossing runs through the same tile with no
// edge path. Each tile writes its MR pixels × NR channels plus bias
// straight into NCHW dst, and the tiles of one call are forked once over
// the worker pool.
//
// Every output element is one chain: +0, a fused multiply-add per k in
// (ci, ky, kx) order, then + bias (0 when nil). That is the chain of
// Im2ColArena followed by Gemm and a bias add, so the two are
// bit-identical, and — the chain depending on nothing but K — so is
// the same convolution over any batch prefix or band of output rows.
// Cached or packed afresh, the panels hold the same bits.
func Conv2DCached(a *Arena, dst, x, weight, bias *Tensor, p ConvParams, c *WeightCache) {
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	if !weight.shape.Equal(Shape{cout, cin, p.KH, p.KW}) {
		panic(fmt.Sprintf("tensor.Conv2DInto: weight %v incompatible with input %v and %+v", weight.shape, x.shape, p))
	}
	if len(dst.data) != n*cout*oh*ow {
		panic(fmt.Sprintf("tensor.Conv2DInto: dst %v, want %d elements", dst.shape, n*cout*oh*ow))
	}
	hp, wp := p.paddedSize(oh, ow)
	padded := a.GetRaw(n*cin, hp, wp)
	padInput(padded.data, x.data, n*cin, h, w, hp, wp, p.Pad)
	t := convTileArgs{
		dst: dst.data, src: padded.data, row: wp, image: cin * hp * wp,
		k: cin * p.KH * p.KW, n: n, cout: cout, oh: oh, ow: ow, sh: p.SH, sw: p.SW,
	}
	t.offs = offsetScratch.get(t.k)
	r := 0
	for ci := 0; ci < cin; ci++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				t.offs[r] = ci*hp*wp + ky*wp + kx
				r++
			}
		}
	}
	t.panels = (cout + gemmNR - 1) / gemmNR
	var cached bool
	t.w, cached = c.acquire(weight.data, cout, t.k)
	if bias != nil {
		t.bias = bias.data
	}
	// Fork only when each of two chunks carries about 1 MFLOP.
	tiles := (n*oh*ow + gemmMR - 1) / gemmMR
	tileFlops := 2 * gemmMR * gemmNR * t.k * t.panels
	parallelRange(tiles, 1+(1<<21)/tileFlops, t, convTiles)
	if cached {
		c.mu.Unlock()
	} else {
		floatScratch.put(t.w)
	}
	offsetScratch.put(t.offs)
	a.Put(padded)
}

// WeightCache holds one convolution's weights packed as Conv2DCached's
// tiles read them, and a bit copy of the weights they were packed from.
// It is compared byte for byte on every call, so any change to the
// weights — a +0/−0 flip or a NaN payload included — repacks, and
// nothing needs to invalidate it. The zero value is empty; its buffers
// are allocated at the first call and kept.
type WeightCache struct {
	mu     sync.Mutex // held by the call reading panels
	cout   int
	bits   []float32
	panels []float32
}

// acquire returns weight ([cout, k]) packed into panels: c's, repacked
// only if weight's bits or shape differ from the last pack (cached is
// true and c stays locked until the caller unlocks it), or, when c is
// nil or another call holds it, packed into scratch.
func (c *WeightCache) acquire(weight []float32, cout, k int) (panels []float32, cached bool) {
	size := (cout + gemmNR - 1) / gemmNR * k * gemmNR
	if c == nil || !c.mu.TryLock() {
		panels = floatScratch.get(size)
		packConvWeights(panels, weight, cout, k)
		return panels, false
	}
	if c.cout != cout || !bytes.Equal(floatBytes(c.bits), floatBytes(weight)) {
		if len(c.panels) != size {
			c.panels = make([]float32, size)
		}
		packConvWeights(c.panels, weight, cout, k)
		c.cout, c.bits = cout, append(c.bits[:0], weight...)
	}
	return c.panels, true
}

// floatBytes views s's memory as bytes, for a comparison of bits.
func floatBytes(s []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// padInput copies the planes of x ([planes, h, w]) into dst ([planes,
// hp, wp]) so that dst's (py, px) is x at (py−Top, px−Left), or 0 where
// that lies outside x. Negative pads crop. Each element of dst is
// written once: every run of x's values is preceded by one clear of the
// padding since the previous run — the right and left pad columns of
// adjacent rows and the bottom and top pad rows of adjacent planes are
// contiguous.
func padInput(dst, x []float32, planes, h, w, hp, wp int, pad Pad2D) {
	lo := min(max(pad.Left, 0), wp)    // the first column inside x
	hi := min(max(w+pad.Left, lo), wp) // one past the last
	py0, py1 := min(max(pad.Top, 0), hp), min(max(h+pad.Top, 0), hp)
	if lo == hi {
		clear(dst)
		return
	}
	z := 0 // dst[z:] is not yet written
	for pl := 0; pl < planes; pl++ {
		src := x[pl*h*w : (pl+1)*h*w]
		for py := py0; py < py1; py++ {
			row := (pl*hp + py) * wp
			clear(dst[z : row+lo])
			copy(dst[row+lo:row+hi], src[(py-pad.Top)*w+lo-pad.Left:])
			z = row + hi
		}
	}
	clear(dst[z:])
}

// packConvWeights copies weight, read as [cout, k], into NR-wide
// k-major panels over Cout: panel q's row r holds channels q·NR …
// q·NR+NR−1 of k-index r, zero past cout. Each weight row is read in
// order and scattered down its panel column, four k-rows a step.
func packConvWeights(dst, weight []float32, cout, k int) {
	if cout%gemmNR != 0 {
		clear(dst[cout/gemmNR*k*gemmNR:])
	}
	for co := 0; co < cout; co++ {
		col := dst[co/gemmNR*k*gemmNR+co%gemmNR:]
		src := weight[co*k : (co+1)*k]
		r := 0
		for ; r+4 <= k; r += 4 {
			s, c := src[r:r+4:r+4], col[r*gemmNR:r*gemmNR+3*gemmNR+1]
			c[0], c[gemmNR], c[2*gemmNR], c[3*gemmNR] = s[0], s[1], s[2], s[3]
		}
		for ; r < k; r++ {
			col[r*gemmNR] = src[r]
		}
	}
}

// convTileArgs carries one convolution to convTiles through
// parallelRange. Output pixel (img, oy, ox)'s window starts at
// src[img·image + oy·sh·row + ox·sw] of the padded input, and k-index r
// reads offs[r] past it.
type convTileArgs struct {
	dst, src, w, bias       []float32
	offs                    []int
	row, image, k, panels   int
	n, cout, oh, ow, sh, sw int
}

// convTiles computes the MR-pixel tiles [lo, hi) of the output, pixels
// numbered (img, oy, ox) across the whole batch. A short last tile
// repeats its last pixel's window and stores only its own pixels.
func convTiles(t convTileArgs, lo, hi int) {
	var tile [gemmMR * gemmNR]float32
	var base, out [gemmMR]int // each pixel's window start, and its dst offset at channel 0
	ohw, npix := t.oh*t.ow, t.n*t.oh*t.ow
	q := lo * gemmMR
	img, oy, ox := q/ohw, q%ohw/t.ow, q%t.ow
	for ti := lo; ti < hi; ti++ {
		rows := min(gemmMR, npix-ti*gemmMR)
		for i := range base {
			if i >= rows {
				base[i] = base[rows-1]
				continue
			}
			base[i] = img*t.image + oy*t.sh*t.row + ox*t.sw
			out[i] = img*t.cout*ohw + oy*t.ow + ox
			if ox++; ox == t.ow {
				if ox, oy = 0, oy+1; oy == t.oh {
					oy, img = 0, img+1
				}
			}
		}
		for pn := 0; pn < t.panels; pn++ {
			convKernel(t.k, t.src, &base, t.offs, t.w[pn*t.k*gemmNR:(pn+1)*t.k*gemmNR], &tile)
			co0 := pn * gemmNR
			for j := 0; j < min(gemmNR, t.cout-co0); j++ {
				var b float32
				if t.bias != nil {
					b = t.bias[co0+j]
				}
				d := t.dst[(co0+j)*ohw:]
				for i := 0; i < rows; i++ {
					d[out[i]] = tile[i*gemmNR+j] + b
				}
			}
		}
	}
}

// convKernel sets tile (MR pixels × NR channels, row-major) to the
// window products of one weight panel w: tile[i][j] is +0 followed by
// one multiply-add per k-index r, in order, of src[base[i]+offs[r]] and
// w[r·NR+j].
func convKernel(k int, src []float32, base *[gemmMR]int, offs []int, w []float32, tile *[gemmMR * gemmNR]float32) {
	if useAsmKernel {
		convKernelFMA(k, &src[0], base, &offs[0], &w[0], tile)
		return
	}
	convKernelGo(k, src, base, offs, w, tile)
}

// convKernelGo is the portable twin of convKernelFMA, written as
// gemmKernelGo is so that it accumulates exactly as gemmKernelGo does.
func convKernelGo(k int, src []float32, base *[gemmMR]int, offs []int, w []float32, tile *[gemmMR * gemmNR]float32) {
	var acc [gemmMR][gemmNR]float32
	for r, off := range offs[:k] {
		wr := w[r*gemmNR : r*gemmNR+gemmNR]
		for i := 0; i < gemmMR; i++ {
			xv := src[base[i]+off]
			ci := &acc[i]
			for j := 0; j < gemmNR; j++ {
				ci[j] += xv * wr[j]
			}
		}
	}
	for i := 0; i < gemmMR; i++ {
		copy(tile[i*gemmNR:(i+1)*gemmNR], acc[i][:])
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
	gemm(gradW.data, g.data, col.data, cout, n*hw, cin*p.KH*p.KW, 1, 1, false, true)
	if !needGradX {
		a.Put(col)
		a.Put(g)
		return nil
	}
	// gradCol = weightᵀ @ g, then scatter with Col2Im.
	gradCol := col // same shape as the im2col matrix: reuse it directly
	gemm(gradCol.data, weight.data, g.data, cin*p.KH*p.KW, cout, n*hw, 1, 0, true, false)
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
