package tensor

import "fmt"

// Direct (no-lowering) convolution. For most shapes im2col+GEMM wins,
// but two regimes favor the direct path and make it a worthwhile
// autotune candidate:
//
//   - 1x1 stride-1 convolutions ARE a GEMM per batch element — the
//     im2col lowering is a pure copy of the input that the direct path
//     skips entirely (ResNet's projection shortcuts and bottleneck
//     reducers live here);
//   - tiny problems where the im2col matrix + product traffic costs
//     more than the naive loop nest (deep split patches).

// Conv2DDirectInto computes the convolution by direct accumulation over
// the kernel window into a caller-supplied dst of shape
// [N,Cout,OH,OW]. dst must not alias x.
// Bit-exactness: the 1x1 stride-1 unpadded case runs through the same
// blocked GEMM as Conv2DInto and matches it bit-for-bit; the general loop
// nest accumulates in the same (ci, ky, kx) order as im2col+GEMM's
// k-dimension, so it also matches bit-for-bit at GEMM's blocking
// granularity — the autotune property test asserts this empirically.
func Conv2DDirectInto(dst, x, weight, bias *Tensor, p ConvParams) {
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	if !weight.shape.Equal(Shape{cout, cin, p.KH, p.KW}) {
		panic(fmt.Sprintf("tensor.Conv2DDirect: weight %v incompatible with input %v and %+v", weight.shape, x.shape, p))
	}
	if len(dst.data) != n*cout*oh*ow {
		panic(fmt.Sprintf("tensor.Conv2DDirectInto: dst %v, want %d elements", dst.shape, n*cout*oh*ow))
	}
	hw := oh * ow
	var bd []float32
	if bias != nil {
		bd = bias.data
	}
	if p.KH == 1 && p.KW == 1 && p.SH == 1 && p.SW == 1 && p.Pad == (Pad2D{}) {
		// dst[b] = weight-as-[Cout,Cin] @ x[b]-as-[Cin,H*W]: the GEMM
		// im2col would run, minus the input copy.
		for b := 0; b < n; b++ {
			gemm(dst.data[b*cout*hw:(b+1)*cout*hw], weight.data, denseB(x.data[b*cin*hw:(b+1)*cin*hw], false),
				cout, cin, hw, 1, 0, false)
		}
		if bd != nil {
			parallelRange(n*cout, 1+parallelThreshold/hw, directBiasArgs{
				od: dst.data, bd: bd, cout: cout, hw: hw,
			}, directBiasAdd)
		}
		return
	}
	parallelRange(n*cout, 1+parallelThreshold/(hw*cin*p.KH*p.KW), directConvArgs{
		od: dst.data, xd: x.data, wd: weight.data, bd: bd, p: p,
		cin: cin, cout: cout, h: h, w: w, oh: oh, ow: ow,
	}, directConvPlanes)
}

type directBiasArgs struct {
	od, bd   []float32
	cout, hw int
}

func directBiasAdd(t directBiasArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		bv := t.bd[i%t.cout]
		d := t.od[i*t.hw : (i+1)*t.hw]
		for j := range d {
			d[j] += bv
		}
	}
}

type directConvArgs struct {
	od, xd, wd, bd          []float32
	p                       ConvParams
	cin, cout, h, w, oh, ow int
}

func directConvPlanes(t directConvArgs, lo, hi int) {
	p := t.p
	for i := lo; i < hi; i++ {
		b, co := i/t.cout, i%t.cout
		var bv float32
		if t.bd != nil {
			bv = t.bd[co]
		}
		dst := t.od[i*t.oh*t.ow : (i+1)*t.oh*t.ow]
		for oy := 0; oy < t.oh; oy++ {
			iy0 := oy*p.SH - p.Pad.Top
			for ox := 0; ox < t.ow; ox++ {
				ix0 := ox*p.SW - p.Pad.Left
				acc := bv
				for ci := 0; ci < t.cin; ci++ {
					src := t.xd[(b*t.cin+ci)*t.h*t.w:]
					wt := t.wd[((co*t.cin+ci)*p.KH)*p.KW:]
					for ky := 0; ky < p.KH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= t.h {
							continue
						}
						srow := src[iy*t.w:]
						wrow := wt[ky*p.KW:]
						for kx := 0; kx < p.KW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= t.w {
								continue
							}
							acc += srow[ix] * wrow[kx]
						}
					}
				}
				dst[oy*t.ow+ox] = acc
			}
		}
	}
}
