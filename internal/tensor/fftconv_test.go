package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestFFTConvApplies(t *testing.T) {
	for _, p := range []ConvParams{
		{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)},
		{KH: 11, KW: 11, SH: 1, SW: 1, Pad: Symmetric(2)},
		{KH: 1, KW: 1, SH: 1, SW: 1},
	} {
		if !FFTConvApplies(p) {
			t.Fatalf("stride-1 geometry %+v rejected", p)
		}
	}
	for _, p := range []ConvParams{
		{KH: 3, KW: 3, SH: 2, SW: 2, Pad: Symmetric(1)},
		{KH: 3, KW: 3, SH: 1, SW: 2},
	} {
		if FFTConvApplies(p) {
			t.Fatalf("strided geometry %+v accepted", p)
		}
	}
}

func TestConv2DFFTPanicsOnStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for stride-2 geometry")
		}
	}()
	p := ConvParams{KH: 3, KW: 3, SH: 2, SW: 2, Pad: Symmetric(1)}
	conv2DFFT(New(1, 1, 8, 8), New(1, 1, 3, 3), nil, p)
}

// TestRFFT2RoundTrip checks the real 2-D transform pair directly:
// irfft2(rfft2(tile)) must reproduce the tile to within a few ulps
// (times the ph·pw scale the pair leaves to the caller).
func TestRFFT2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{2, 2}, {4, 8}, {16, 16}, {32, 8}} {
		ph, pw := dims[0], dims[1]
		pwh := pw/2 + 1
		tile := make([]float32, ph*pw)
		for i := range tile {
			tile[i] = float32(rng.NormFloat64())
		}
		spec := make([]float32, 2*ph*pwh)
		back := make([]float32, ph*pw)
		z := make([]float32, 2*pw)
		rp, cp := getFFTPlan(pw), getFFTPlan(ph)
		rfft2(spec, tile, ph, pw, pwh, rp, cp, z)
		irfft2(back, spec, ph, pw, pwh, rp, cp, z)
		scale := float32(1 / float64(ph*pw))
		for i := range tile {
			if d := math.Abs(float64(back[i]*scale - tile[i])); d > 1e-5 {
				t.Fatalf("%dx%d: round-trip error %v at %d", ph, pw, d, i)
			}
		}
	}
}

// relErr returns max|got−want| relative to max|want| — the metric the
// FFTConvTolerance contract is stated in.
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

func TestFFTConvMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		n, cin, h, w, cout, kh, kw int
		pad                        Pad2D
	}{
		{2, 3, 8, 8, 4, 3, 3, Symmetric(1)},          // the Winograd shape
		{1, 2, 9, 7, 3, 5, 5, Symmetric(2)},          // odd input, 5x5
		{1, 4, 6, 6, 2, 1, 1, Symmetric(0)},          // pointwise
		{2, 1, 5, 11, 3, 3, 7, Symmetric(1)},         // rectangular kernel
		{1, 2, 8, 8, 2, 3, 3, Pad2D{1, 0, 0, 1}},     // asymmetric (split-style)
		{1, 3, 31, 33, 2, 7, 7, Symmetric(3)},        // non-pow2 input
		{1, 1, 4, 4, 1, 4, 4, Symmetric(0)},          // kernel == input
		{2, 2, 16, 16, 4, 11, 11, Pad2D{5, 5, 5, 5}}, // large kernel
	}
	for i, c := range cases {
		p := ConvParams{KH: c.kh, KW: c.kw, SH: 1, SW: 1, Pad: c.pad}
		x := New(c.n, c.cin, c.h, c.w)
		w := New(c.cout, c.cin, c.kh, c.kw)
		bias := New(c.cout)
		x.RandNormal(rng, 1)
		w.RandNormal(rng, 0.5)
		bias.RandNormal(rng, 0.1)
		want := conv2D(x, w, bias, p)
		got := conv2DFFT(x, w, bias, p)
		if !got.Shape().Equal(want.Shape()) {
			t.Fatalf("case %d: shape %v vs %v", i, got.Shape(), want.Shape())
		}
		if e := relErr(got, want); e > FFTConvTolerance {
			t.Fatalf("case %d: FFT differs from im2col by %v (tolerance %v)", i, e, FFTConvTolerance)
		}
	}
}

// TestFFTConvQuickEquivalence fuzzes stride-1 geometries, including
// deep-channel accumulations, against the im2col reference.
func TestFFTConvQuickEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2)
		cin := 1 + rng.Intn(16)
		cout := 1 + rng.Intn(8)
		kh := 1 + rng.Intn(5)
		kw := 1 + rng.Intn(5)
		h := kh + rng.Intn(20)
		w := kw + rng.Intn(20)
		pad := Pad2D{rng.Intn(kh), rng.Intn(kh), rng.Intn(kw), rng.Intn(kw)}
		p := ConvParams{KH: kh, KW: kw, SH: 1, SW: 1, Pad: pad}
		x := New(n, cin, h, w)
		wt := New(cout, cin, kh, kw)
		x.RandNormal(rng, 1)
		wt.RandNormal(rng, 0.5)
		want := conv2D(x, wt, nil, p)
		got := conv2DFFT(x, wt, nil, p)
		if e := relErr(got, want); e > FFTConvTolerance {
			t.Fatalf("seed %d (%dx%dx%dx%d k%dx%d pad%+v): error %v > %v",
				seed, n, cin, h, w, kh, kw, pad, e, FFTConvTolerance)
		}
	}
}

func TestDirectConvMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		n, cin, h, w, cout, kh, kw, sh, sw int
		pad                                Pad2D
	}{
		{2, 8, 7, 7, 16, 1, 1, 1, 1, Symmetric(0)}, // 1x1 GEMM fast path
		{1, 3, 8, 8, 4, 3, 3, 1, 1, Symmetric(1)},
		{1, 2, 9, 9, 3, 3, 3, 2, 2, Symmetric(1)}, // strided
		{2, 1, 11, 5, 2, 5, 3, 2, 1, Pad2D{2, 1, 1, 0}},
		{1, 4, 6, 6, 2, 1, 1, 2, 2, Symmetric(0)}, // 1x1 strided (general path)
	}
	for i, c := range cases {
		p := ConvParams{KH: c.kh, KW: c.kw, SH: c.sh, SW: c.sw, Pad: c.pad}
		x := New(c.n, c.cin, c.h, c.w)
		w := New(c.cout, c.cin, c.kh, c.kw)
		bias := New(c.cout)
		x.RandNormal(rng, 1)
		w.RandNormal(rng, 0.5)
		bias.RandNormal(rng, 0.1)
		want := conv2D(x, w, bias, p)
		got := conv2DDirect(x, w, bias, p)
		if !got.Shape().Equal(want.Shape()) {
			t.Fatalf("case %d: shape %v vs %v", i, got.Shape(), want.Shape())
		}
		if e := relErr(got, want); e > 1e-5 {
			t.Fatalf("case %d: direct differs from im2col by %v", i, e)
		}
	}
}

func TestFFTConvWorkspaceBytes(t *testing.T) {
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)}
	small := FFTConvWorkspaceBytes(Shape{1, 4, 16, 16}, 4, p)
	big := FFTConvWorkspaceBytes(Shape{1, 64, 16, 16}, 64, p)
	if small <= 0 || big <= small {
		t.Fatalf("workspace accounting not monotone in channels: %d vs %d", small, big)
	}
	// 16+2 pads to 32: each spectrum grid is 32*17 complex bins.
	grid := int64(2 * 32 * 17)
	if want := 4 * grid * 4 * (1 + 4); small < want {
		t.Fatalf("workspace %d smaller than the spectra alone (%d)", small, want)
	}
}
