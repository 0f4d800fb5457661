package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// convGeom is one convolution geometry of the property and fuzz tests.
type convGeom struct {
	n, c, h, w, cout int
	p                ConvParams
}

func (g convGeom) String() string {
	return fmt.Sprintf("x[%d,%d,%d,%d] cout %d k%dx%d s%dx%d pad%+v",
		g.n, g.c, g.h, g.w, g.cout, g.p.KH, g.p.KW, g.p.SH, g.p.SW, g.p.Pad)
}

// narrowPaddedCases are patches whose padding leaves some kernel column
// with no in-bounds output (an empty oxRange). Both once panicked in
// im2col/col2im, and with spare slice capacity the clear of such a row
// ran into the next one.
var narrowPaddedCases = []struct {
	name string
	g    convGeom
}{
	{"3x3/s1 over width 1, pad t2 b0 l0 r2", convGeom{3, 2, 4, 1, 3,
		ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Pad2D{Top: 2, Left: 0, Right: 2}}}},
	{"7x7/s2 stem over a 1x1 patch, pad 3", convGeom{2, 3, 1, 1, 4,
		ConvParams{KH: 7, KW: 7, SH: 2, SW: 2, Pad: Symmetric(3)}}},
}

// convExplicit is the materialized reference of Conv2DInto: the full
// im2col matrix, one Gemm, then the same NCHW reorder and bias add.
func convExplicit(x, w, bias *Tensor, p ConvParams) *Tensor {
	n, cin, _, _, oh, ow := p.check(x)
	cout, hw := w.shape[0], oh*ow
	col := Im2ColArena(nil, x, p)
	prod := New(cout, n*hw)
	Gemm(prod, w.Reshape(cout, cin*p.KH*p.KW), col, 1, 0, false, false)
	out := New(n, cout, oh, ow)
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			src := prod.data[co*n*hw+b*hw:]
			dst := out.data[(b*cout+co)*hw:]
			for j := 0; j < hw; j++ {
				dst[j] = src[j] + bias.data[co]
			}
		}
	}
	return out
}

// convNaive64 is the float64 loop-nest reference: the forward output
// and, for the upstream gradient g, the input and weight gradients.
func convNaive64(x, w, bias, g *Tensor, p ConvParams) (y, gx, gw *Tensor) {
	n, cin, h, wd, oh, ow := p.check(x)
	cout := w.shape[0]
	y64 := make([]float64, n*cout*oh*ow)
	gx64 := make([]float64, len(x.data))
	gw64 := make([]float64, len(w.data))
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					o := ((b*cout+co)*oh+oy)*ow + ox
					acc := float64(bias.data[co])
					gv := float64(g.data[o])
					for ci := 0; ci < cin; ci++ {
						for ky := 0; ky < p.KH; ky++ {
							iy := oy*p.SH - p.Pad.Top + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < p.KW; kx++ {
								ix := ox*p.SW - p.Pad.Left + kx
								if ix < 0 || ix >= wd {
									continue
								}
								xi := ((b*cin+ci)*h+iy)*wd + ix
								wi := ((co*cin+ci)*p.KH+ky)*p.KW + kx
								acc += float64(x.data[xi]) * float64(w.data[wi])
								gx64[xi] += gv * float64(w.data[wi])
								gw64[wi] += gv * float64(x.data[xi])
							}
						}
					}
					y64[o] = acc
				}
			}
		}
	}
	narrow := func(v []float64, shape Shape) *Tensor {
		t := New(shape...)
		for i, f := range v {
			t.data[i] = float32(f)
		}
		return t
	}
	return narrow(y64, Shape{n, cout, oh, ow}), narrow(gx64, x.shape), narrow(gw64, w.shape)
}

// checkConvGeometry runs one geometry: Conv2DInto must equal explicit
// im2col + Gemm bit for bit, and the forward and both gradients of
// Conv2DBackwardArena must match the float64 loop nest within 1e-4
// relative.
func checkConvGeometry(tb testing.TB, g convGeom, seed int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := randTensor(rng, g.n, g.c, g.h, g.w)
	w := randTensor(rng, g.cout, g.c, g.p.KH, g.p.KW)
	bias := randTensor(rng, g.cout)
	oh, ow := g.p.OutSize(g.h, g.w)
	a := NewArena()
	got := New(g.n, g.cout, oh, ow)
	Conv2DInto(a, got, x, w, bias, g.p)
	want := convExplicit(x, w, bias, g.p)
	for i := range want.data {
		if got.data[i] != want.data[i] {
			tb.Fatalf("%v: implicit GEMM differs from im2col + Gemm at %d: %g vs %g", g, i, got.data[i], want.data[i])
		}
	}
	gOut := randTensor(rng, g.n, g.cout, oh, ow)
	gw, gb := New(w.shape...), New(g.cout)
	gx := Conv2DBackwardArena(a, x, w, gOut, g.p, gw, gb, true)
	y64, gx64, gw64 := convNaive64(x, w, bias, gOut, g.p)
	for _, c := range []struct {
		name      string
		got, want *Tensor
	}{{"forward", got, y64}, {"gradX", gx, gx64}, {"gradW", gw, gw64}} {
		if e := relErr(c.got, c.want); !(e <= 1e-4) {
			tb.Fatalf("%v: %s differs from the float64 reference by %g relative", g, c.name, e)
		}
	}
}

// TestConvNarrowPaddedPatches pins the empty-oxRange geometries,
// forward and backward.
func TestConvNarrowPaddedPatches(t *testing.T) {
	for i, c := range narrowPaddedCases {
		t.Run(c.name, func(t *testing.T) { checkConvGeometry(t, c.g, int64(i)) })
	}
}

// randConvGeom draws a geometry with a positive output: N 1–4, C 1–40,
// H/W 1–20 (a quarter forced to width 1), kernel 1–4 per axis, strides
// 1–3, and pads −1…2 per side (negative pads crop).
func randConvGeom(rng *rand.Rand) convGeom {
	for {
		g := convGeom{n: 1 + rng.Intn(4), c: 1 + rng.Intn(40), h: 1 + rng.Intn(20), w: 1 + rng.Intn(20), cout: 1 + rng.Intn(8)}
		if rng.Intn(4) == 0 {
			g.w = 1
		}
		pad := func() int { return rng.Intn(4) - 1 }
		g.p = ConvParams{KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(4), SH: 1 + rng.Intn(3), SW: 1 + rng.Intn(3),
			Pad: Pad2D{Top: pad(), Bottom: pad(), Left: pad(), Right: pad()}}
		if oh, ow := g.p.OutSize(g.h, g.w); oh > 0 && ow > 0 {
			return g
		}
	}
}

// TestConvGeometryMatchesReference sweeps 1,000 seeded geometries
// through checkConvGeometry and checks that the sweep covered the edge
// cases it exists for.
func TestConvGeometryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var width1, wideKernel, emptyCol, deepK int
	for i := 0; i < 1000; i++ {
		g := randConvGeom(rng)
		checkConvGeometry(t, g, int64(i))
		if g.w == 1 {
			width1++
		}
		if g.p.KW > g.w {
			wideKernel++
		}
		_, ow := g.p.OutSize(g.h, g.w)
		for kx := 0; kx < g.p.KW; kx++ {
			if lo, hi := g.p.oxRange(kx, g.w, ow); lo == hi {
				emptyCol++
				break
			}
		}
		if g.c*g.p.KH*g.p.KW > 2*gemmKC {
			deepK++
		}
	}
	if width1 == 0 || wideKernel == 0 || emptyCol == 0 || deepK == 0 {
		t.Fatalf("sweep missed a case: width-1 %d, kernel wider than input %d, padding-only kernel column %d, K > 2·KC %d",
			width1, wideKernel, emptyCol, deepK)
	}
}

// FuzzConvGeometry drives checkConvGeometry from fuzzed dimensions,
// folded into the ranges of randConvGeom except that kernels reach 11
// (wider than one packBConv run) and pads 3, so the seeds can hold both
// narrowPaddedCases and an AlexNet-style stem verbatim; plain `go test`
// runs them.
func FuzzConvGeometry(f *testing.F) {
	add := func(g convGeom, seed int64) {
		p := g.p
		f.Add(uint8(g.n-1), uint8(g.c-1), uint8(g.h-1), uint8(g.w-1), uint8(g.cout-1),
			uint8(p.KH-1), uint8(p.KW-1), uint8(p.SH-1), uint8(p.SW-1),
			uint8(p.Pad.Top+1), uint8(p.Pad.Bottom+1), uint8(p.Pad.Left+1), uint8(p.Pad.Right+1), seed)
	}
	for i, c := range narrowPaddedCases {
		add(c.g, int64(i))
	}
	add(convGeom{2, 33, 9, 7, 8, ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)}}, 2)
	add(convGeom{1, 5, 20, 20, 6, ConvParams{KH: 4, KW: 2, SH: 3, SW: 2, Pad: Pad2D{-1, 2, 0, -1}}}, 3)
	add(convGeom{2, 3, 20, 19, 5, ConvParams{KH: 11, KW: 11, SH: 3, SW: 3, Pad: Symmetric(2)}}, 4)
	add(convGeom{1, 4, 12, 12, 3, ConvParams{KH: 9, KW: 10, SH: 1, SW: 1, Pad: Pad2D{3, 1, 3, 2}}}, 5)
	f.Fuzz(func(t *testing.T, n, c, h, w, cout, kh, kw, sh, sw, pt, pb, pl, pr uint8, seed int64) {
		pad := func(v uint8) int { return int(v)%5 - 1 }
		g := convGeom{n: 1 + int(n)%4, c: 1 + int(c)%40, h: 1 + int(h)%20, w: 1 + int(w)%20, cout: 1 + int(cout)%8,
			p: ConvParams{KH: 1 + int(kh)%11, KW: 1 + int(kw)%11, SH: 1 + int(sh)%3, SW: 1 + int(sw)%3,
				Pad: Pad2D{pad(pt), pad(pb), pad(pl), pad(pr)}}}
		if oh, ow := g.p.OutSize(g.h, g.w); oh <= 0 || ow <= 0 {
			t.Skip("non-positive output")
		}
		checkConvGeometry(t, g, seed)
	})
}

// relErr returns max|got−want| relative to max|want|.
func relErr(got, want *Tensor) float64 {
	var maxAbs, maxDiff float64
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if a := math.Abs(float64(wd[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(gd[i] - wd[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxAbs == 0 {
		return maxDiff
	}
	return maxDiff / maxAbs
}

func BenchmarkConvIm2Col3x3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(4, 64, 32, 32)
	w := New(64, 64, 3, 3)
	x.RandNormal(rng, 1)
	w.RandNormal(rng, 0.1)
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv2D(x, w, nil, p)
	}
}
