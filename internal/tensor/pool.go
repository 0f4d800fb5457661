package tensor

import "math"

// MaxPool2DInto computes a max pooling over x into a caller-supplied
// out of shape [N,C,OH,OW]. Padded positions are treated as -inf (they
// never win), matching the convention of cuDNN and the major
// frameworks. arg, when non-nil, receives the flat argmax index (into
// each input plane) of every output element, which the backward pass
// consumes; indices are stored as float32 (exact for plane sizes below
// 2^24, far above any model here) so they recycle through an arena like
// any activation, and -1 marks windows that were entirely padding.
func MaxPool2DInto(out, arg, x *Tensor, p ConvParams) {
	n, c, h, w, oh, ow := p.check(x)
	if len(out.data) != n*c*oh*ow {
		panic("tensor.MaxPool2DInto: out size mismatch")
	}
	var ad []float32
	if arg != nil {
		ad = arg.data
	}
	perPlane := oh * ow * p.KH * p.KW
	parallelRange(n*c, 1+parallelThreshold/perPlane, maxPoolArgs{
		od: out.data, ad: ad, xd: x.data, p: p, h: h, w: w, oh: oh, ow: ow,
	}, maxPoolPlanes)
}

type maxPoolArgs struct {
	od, ad, xd   []float32
	p            ConvParams
	h, w, oh, ow int
}

func maxPoolPlanes(t maxPoolArgs, lo, hi int) {
	p := t.p
	h, w, oh, ow := t.h, t.w, t.oh, t.ow
	for nc := lo; nc < hi; nc++ {
		src := t.xd[nc*h*w : (nc+1)*h*w]
		dst := t.od[nc*oh*ow : (nc+1)*oh*ow]
		var adst []float32
		if t.ad != nil {
			adst = t.ad[nc*oh*ow : (nc+1)*oh*ow]
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bi := -1
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH - p.Pad.Top + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.SW - p.Pad.Left + kx
						if ix < 0 || ix >= w {
							continue
						}
						if v := src[iy*w+ix]; v > best {
							best, bi = v, iy*w+ix
						}
					}
				}
				if bi < 0 {
					// Window entirely in padding: emit 0.
					best = 0
				}
				dst[oy*ow+ox] = best
				if adst != nil {
					adst[oy*ow+ox] = float32(bi)
				}
			}
		}
	}
}

// MaxPool2DBackwardArena scatters gradOut back to the argmax positions
// recorded by MaxPool2DInto.
func MaxPool2DBackwardArena(a *Arena, gradOut, arg *Tensor, p ConvParams, n, c, h, w int) *Tensor {
	oh, ow := p.OutSize(h, w)
	gradIn := a.Get(n, c, h, w) // zeroed: scatter target
	parallelRange(n*c, 1+parallelThreshold/(oh*ow), maxPoolBwdArgs{
		gd: gradOut.data, ad: arg.data, gid: gradIn.data, hw: h * w, ohw: oh * ow,
	}, maxPoolBwdPlanes)
	return gradIn
}

type maxPoolBwdArgs struct {
	gd, ad, gid []float32
	hw, ohw     int
}

func maxPoolBwdPlanes(t maxPoolBwdArgs, lo, hi int) {
	for nc := lo; nc < hi; nc++ {
		src := t.gd[nc*t.ohw : (nc+1)*t.ohw]
		asrc := t.ad[nc*t.ohw : (nc+1)*t.ohw]
		dst := t.gid[nc*t.hw : (nc+1)*t.hw]
		for i, g := range src {
			if ai := int(asrc[i]); ai >= 0 {
				dst[ai] += g
			}
		}
	}
}

// AvgPool2DInto computes average pooling into a caller-supplied out of
// shape [N,C,OH,OW]. Padded positions count as zeros and the divisor is
// the full window size (count_include_pad), keeping the operation
// linear, which simplifies its adjoint.
func AvgPool2DInto(out, x *Tensor, p ConvParams) {
	n, c, h, w, oh, ow := p.check(x)
	if len(out.data) != n*c*oh*ow {
		panic("tensor.AvgPool2DInto: out size mismatch")
	}
	perPlane := oh * ow * p.KH * p.KW
	parallelRange(n*c, 1+parallelThreshold/perPlane, avgPoolArgs{
		od: out.data, xd: x.data, p: p, h: h, w: w, oh: oh, ow: ow,
	}, avgPoolPlanes)
}

type avgPoolArgs struct {
	od, xd       []float32
	p            ConvParams
	h, w, oh, ow int
}

func avgPoolPlanes(t avgPoolArgs, lo, hi int) {
	p := t.p
	h, w, oh, ow := t.h, t.w, t.oh, t.ow
	inv := 1 / float32(p.KH*p.KW)
	for nc := lo; nc < hi; nc++ {
		src := t.xd[nc*h*w : (nc+1)*h*w]
		dst := t.od[nc*oh*ow : (nc+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float32
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH - p.Pad.Top + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.SW - p.Pad.Left + kx
						if ix < 0 || ix >= w {
							continue
						}
						sum += src[iy*w+ix]
					}
				}
				dst[oy*ow+ox] = sum * inv
			}
		}
	}
}

// AvgPool2DBackwardArena computes the adjoint of AvgPool2DInto, drawn
// from the arena.
func AvgPool2DBackwardArena(a *Arena, gradOut *Tensor, p ConvParams, n, c, h, w int) *Tensor {
	oh, ow := p.OutSize(h, w)
	gradIn := a.Get(n, c, h, w) // zeroed: scatter target
	perPlane := oh * ow * p.KH * p.KW
	parallelRange(n*c, 1+parallelThreshold/perPlane, avgPoolBwdArgs{
		gd: gradOut.data, gid: gradIn.data, p: p, h: h, w: w, oh: oh, ow: ow,
	}, avgPoolBwdPlanes)
	return gradIn
}

type avgPoolBwdArgs struct {
	gd, gid      []float32
	p            ConvParams
	h, w, oh, ow int
}

func avgPoolBwdPlanes(t avgPoolBwdArgs, lo, hi int) {
	p := t.p
	h, w, oh, ow := t.h, t.w, t.oh, t.ow
	inv := 1 / float32(p.KH*p.KW)
	for nc := lo; nc < hi; nc++ {
		src := t.gd[nc*oh*ow : (nc+1)*oh*ow]
		dst := t.gid[nc*h*w : (nc+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := src[oy*ow+ox] * inv
				for ky := 0; ky < p.KH; ky++ {
					iy := oy*p.SH - p.Pad.Top + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < p.KW; kx++ {
						ix := ox*p.SW - p.Pad.Left + kx
						if ix < 0 || ix >= w {
							continue
						}
						dst[iy*w+ix] += g
					}
				}
			}
		}
	}
}
