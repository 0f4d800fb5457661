package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestNegativeCropConvMatchesManualCrop: negative padding must equal
// cropping the input before a zero-padding convolution.
func TestNegativeCropConvMatchesManualCrop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := New(1, 2, 8, 8)
	x.RandNormal(rng, 1)
	w := New(2, 2, 1, 1)
	w.RandNormal(rng, 1)
	// Crop one row at top via Pad.Top = -1.
	p := ConvParams{KH: 1, KW: 1, SH: 1, SW: 1, Pad: Pad2D{Top: -1}}
	got := conv2D(x, w, nil, p)
	// Manual: copy rows 1..8 of each channel, then conv without padding.
	crop := New(1, 2, 7, 8)
	for c := 0; c < 2; c++ {
		copy(crop.Data()[c*7*8:(c+1)*7*8], x.Data()[c*8*8+8:(c+1)*8*8])
	}
	want := conv2D(crop, w, nil, ConvParams{KH: 1, KW: 1, SH: 1, SW: 1})
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("shape %v vs %v", got.Shape(), want.Shape())
	}
	if d := MaxAbsDiff(got, want); d > 1e-6 {
		t.Fatalf("crop-conv mismatch %v", d)
	}
}

// TestQuickMatMulLinearity: matmul must be linear in its first argument.
func TestQuickMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a1, a2 := New(m, k), New(m, k)
		bm := New(k, n)
		a1.RandNormal(rng, 1)
		a2.RandNormal(rng, 1)
		bm.RandNormal(rng, 1)
		sum := New(m, k)
		Add(sum, a1, a2)
		lhs := New(m, n)
		MatMul(lhs, sum, bm)
		r1, r2 := New(m, n), New(m, n)
		MatMul(r1, a1, bm)
		MatMul(r2, a2, bm)
		rhs := New(m, n)
		Add(rhs, r1, r2)
		return MaxAbsDiff(lhs, rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPoolGradientMassConservation: max-pool backward scatters
// exactly the gradient mass it receives (no duplication, no loss) for
// unpadded, non-overlapping windows.
func TestQuickPoolGradientMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		h := k * (1 + rng.Intn(5))
		w := k * (1 + rng.Intn(5))
		x := New(2, 2, h, w)
		x.RandNormal(rng, 1)
		p := ConvParams{KH: k, KW: k, SH: k, SW: k}
		_, arg := maxPool2D(x, p)
		oh, ow := p.OutSize(h, w)
		g := New(2, 2, oh, ow)
		g.RandNormal(rng, 1)
		gi := MaxPool2DBackwardArena(nil, g, arg, p, 2, 2, h, w)
		diff := gi.Sum() - g.Sum()
		return diff < 1e-3 && diff > -1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
