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
// ix = ox*SW - Pad.Left + kx lands inside [0, w). Precomputing it per
// (kx) row lets the im2col/col2im inner loops run without per-pixel
// bounds checks — and for stride 1 the interior becomes one contiguous
// copy.
func (p ConvParams) oxRange(kx, w, ow int) (oxLo, oxHi int) {
	oxLo = ceilDiv(p.Pad.Left-kx, p.SW)
	if oxLo < 0 {
		oxLo = 0
	}
	oxHi = ceilDiv(w+p.Pad.Left-kx, p.SW)
	if oxHi > ow {
		oxHi = ow
	}
	if oxHi < oxLo {
		oxHi = oxLo
	}
	return oxLo, oxHi
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
// [Cout]; dst is [N,Cout,OH,OW]. Internally it lowers to im2col + GEMM,
// the same algorithmic shape cuDNN's IMPLICIT_GEMM uses; that scratch
// (the im2col matrix and the GEMM product) cycles through the arena.
// dst must not alias x.
func Conv2DInto(a *Arena, dst, x, weight, bias *Tensor, p ConvParams) {
	n, cin, _, _, oh, ow := p.check(x)
	cout := weight.shape[0]
	if !weight.shape.Equal(Shape{cout, cin, p.KH, p.KW}) {
		panic(fmt.Sprintf("tensor.Conv2DInto: weight %v incompatible with input %v and %+v", weight.shape, x.shape, p))
	}
	if len(dst.data) != n*cout*oh*ow {
		panic(fmt.Sprintf("tensor.Conv2DInto: dst %v, want %d elements", dst.shape, n*cout*oh*ow))
	}
	col := Im2ColArena(a, x, p)
	prod := a.GetRaw(cout, n*oh*ow)
	// prod = weight-as-[Cout, Cin*KH*KW] @ col, via the raw gemm entry:
	// shapes were validated above and this avoids per-call Reshape views.
	gemm(prod.data, weight.data, col.data, cout, cin*p.KH*p.KW, n*oh*ow, 1, 0, false, false)
	a.Put(col)
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
