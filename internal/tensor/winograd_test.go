package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWinogradApplies(t *testing.T) {
	if !WinogradApplies(ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)}) {
		t.Fatal("3x3/1 rejected")
	}
	for _, p := range []ConvParams{
		{KH: 3, KW: 3, SH: 2, SW: 2},
		{KH: 5, KW: 5, SH: 1, SW: 1},
		{KH: 3, KW: 1, SH: 1, SW: 1},
	} {
		if WinogradApplies(p) {
			t.Fatalf("geometry %+v accepted", p)
		}
	}
}

func TestWinogradMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n, cin, h, w, cout int
		pad                Pad2D
	}{
		{2, 3, 8, 8, 4, Symmetric(1)},      // even output
		{1, 2, 9, 7, 3, Symmetric(1)},      // odd output (edge tiles)
		{1, 4, 6, 6, 2, Symmetric(0)},      // valid conv
		{2, 1, 5, 11, 3, Symmetric(1)},     // skinny
		{1, 2, 8, 8, 2, Pad2D{1, 0, 0, 1}}, // asymmetric (split-style)
	}
	for i, c := range cases {
		p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: c.pad}
		x := New(c.n, c.cin, c.h, c.w)
		w := New(c.cout, c.cin, 3, 3)
		bias := New(c.cout)
		x.RandNormal(rng, 1)
		w.RandNormal(rng, 0.5)
		bias.RandNormal(rng, 0.1)
		want := conv2D(x, w, bias, p)
		got := conv2DWinograd(x, w, bias, p)
		if !got.Shape().Equal(want.Shape()) {
			t.Fatalf("case %d: shape %v vs %v", i, got.Shape(), want.Shape())
		}
		if d := MaxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("case %d: winograd differs from im2col by %v", i, d)
		}
	}
}

// TestWinogradQuickEquivalence fuzzes geometries.
func TestWinogradQuickEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2)
		cin := 1 + rng.Intn(4)
		cout := 1 + rng.Intn(4)
		h := 3 + rng.Intn(12)
		w := 3 + rng.Intn(12)
		p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Pad2D{
			Top: rng.Intn(2), Bottom: rng.Intn(2), Left: rng.Intn(2), Right: rng.Intn(2),
		}}
		x := New(n, cin, h, w)
		wt := New(cout, cin, 3, 3)
		x.RandNormal(rng, 1)
		wt.RandNormal(rng, 0.5)
		want := conv2D(x, wt, nil, p)
		got := conv2DWinograd(x, wt, nil, p)
		return MaxAbsDiff(got, want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWinogradWorkspaceScalesWithTiles(t *testing.T) {
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)}
	small := WinogradWorkspaceBytes(Shape{1, 16, 16, 16}, 16, p)
	big := WinogradWorkspaceBytes(Shape{1, 16, 32, 32}, 16, p)
	if big <= small {
		t.Fatal("workspace must grow with spatial size")
	}
	// The V buffer alone is 4x the input footprint (16 tiles of 1/4 the
	// elements each): the §2.2.1 space-for-time trade.
	in := Shape{1, 16, 32, 32}
	if big < 4*in.Bytes() {
		t.Fatalf("workspace %d below the 4x input bound %d", big, 4*in.Bytes())
	}
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

func BenchmarkConvWinograd3x3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(4, 64, 32, 32)
	w := New(64, 64, 3, 3)
	x.RandNormal(rng, 1)
	w.RandNormal(rng, 0.1)
	p := ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv2DWinograd(x, w, nil, p)
	}
}
