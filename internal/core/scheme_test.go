package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"splitcnn/internal/tensor"
)

func TestEqualScheme(t *testing.T) {
	s, err := EqualScheme(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Scheme{0, 2, 5, 7}
	if !s.Equal(want) {
		t.Fatalf("EqualScheme(10,4) = %v, want %v", s, want)
	}
	if s.PartLen(0, 10) != 2 || s.PartLen(3, 10) != 3 {
		t.Fatalf("part lengths wrong: %v", s)
	}
	if _, err := EqualScheme(3, 5); err == nil {
		t.Fatal("oversplit accepted")
	}
	one, err := EqualScheme(7, 1)
	if err != nil || !one.Equal(Scheme{0}) {
		t.Fatalf("trivial scheme: %v, %v", one, err)
	}
}

func TestBoundsCollapseWhenKernelEqualsStride(t *testing.T) {
	// "lb(I_i) = ub(I_i) if the kernel shape equals the stride, in which
	// case the splitting is natural and non-intrusive."
	for _, w := range []tensor.Window1D{
		{K: 2, S: 2}, {K: 3, S: 3}, {K: 2, S: 2, Pb: 1, Pe: 1},
	} {
		for o := 1; o < 10; o++ {
			if lb, ub := w.LowerBound(o), w.UpperBound(o); lb != ub {
				t.Fatalf("window %+v at o=%d: lb %d != ub %d", w, o, lb, ub)
			}
		}
	}
}

func TestBoundsOrderingWhenKernelExceedsStride(t *testing.T) {
	w := tensor.Window1D{K: 3, S: 1, Pb: 1, Pe: 1}
	for o := 1; o < 10; o++ {
		lb, ub := w.LowerBound(o), w.UpperBound(o)
		if ub-lb != w.K-w.S {
			t.Fatalf("interval width %d, want k-s=%d", ub-lb, w.K-w.S)
		}
	}
}

// TestPaddingOutputSizeIdentity is the core §3.1 invariant: for any
// window with k >= s, any valid output scheme, and any boundary policy,
// the i-th padded patch produces exactly O_{i+1} − O_i outputs, patch
// begin-padding is the global p_b for patch 0, end-padding the global
// p_e for the last patch, and interior paddings stay in [0, k−s].
func TestPaddingOutputSizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		s := 1 + rng.Intn(3)
		k := s + rng.Intn(4) // k >= s
		pb, pe := rng.Intn(k), rng.Intn(k)
		lin := k + rng.Intn(60)
		w := tensor.Window1D{K: k, S: s, Pb: pb, Pe: pe}
		lout := w.OutSize(lin)
		if lout < 2 {
			continue
		}
		n := 2 + rng.Intn(3)
		if n > lout {
			n = lout
		}
		out, err := EqualScheme(lout, n)
		if err != nil {
			t.Fatal(err)
		}
		policy := BoundaryPolicy(rng.Intn(3))
		in, err := InputScheme(out, w, lin, policy)
		if err != nil {
			continue // tiny dims can make the derived scheme degenerate
		}
		padB, padE := axisPads(w, in, out, lin)
		if padB[0] != pb {
			t.Fatalf("patch 0 begin pad %d, want global %d", padB[0], pb)
		}
		if padE[n-1] != pe {
			t.Fatalf("last patch end pad %d, want global %d", padE[n-1], pe)
		}
		for i := 0; i < n; i++ {
			li := in.PartLen(i, lin)
			got := (li + padB[i] + padE[i] - k) / s
			if (li+padB[i]+padE[i]-k)%s != 0 && i < n-1 {
				t.Fatalf("interior patch %d output size not exact: len %d pads (%d,%d) window %+v", i, li, padB[i], padE[i], w)
			}
			got++
			want := out.PartLen(i, lout)
			if got != want {
				t.Fatalf("iter %d policy %v: patch %d produces %d outputs, want %d (window %+v, in %v, out %v, pads %v %v)",
					iter, policy, i, got, want, w, in, out, padB, padE)
			}
			if i > 0 {
				if padB[i] < 0 || padB[i] > k-s {
					t.Fatalf("interior begin pad %d outside [0, %d] (corrected formula)", padB[i], k-s)
				}
			}
			if i < n-1 {
				if padE[i] < 0 || padE[i] > k-s {
					t.Fatalf("interior end pad %d outside [0, %d]", padE[i], k-s)
				}
			}
		}
	}
}

// TestNaturalSplitHasZeroInteriorPadding: when k = s the natural split
// needs no padding at all on interior boundaries.
func TestNaturalSplitHasZeroInteriorPadding(t *testing.T) {
	w := tensor.Window1D{K: 2, S: 2}
	out, _ := EqualScheme(8, 4) // over output length 8 (input 16)
	in, err := InputScheme(out, w, 16, PolicyMidpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Equal(Scheme{0, 4, 8, 12}) {
		t.Fatalf("input scheme %v", in)
	}
	padB, padE := axisPads(w, in, out, 16)
	for i := range padB {
		if padB[i] != 0 || padE[i] != 0 {
			t.Fatalf("patch %d pads (%d,%d), want zero", i, padB[i], padE[i])
		}
	}
}

// TestMidpointFixedPointForSameConv: a stride-1 same-padded convolution
// maps a scheme onto itself under the midpoint policy — the property
// that makes multi-layer split regions communication-free (§3.2).
func TestMidpointFixedPointForSameConv(t *testing.T) {
	w := tensor.Window1D{K: 3, S: 1, Pb: 1, Pe: 1}
	out := Scheme{0, 7, 13, 22}
	in, err := InputScheme(out, w, 32, PolicyMidpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) {
		t.Fatalf("midpoint scheme moved: %v -> %v", out, in)
	}
}

// TestDownsamplingConvEmptyInterval: a 1x1 stride-2 convolution (k < s,
// the ResNet projection shortcut) has an empty [lb, ub]; the fallback
// picks lb and yields negative end padding (cropping) that preserves the
// output-size identity.
func TestDownsamplingConvEmptyInterval(t *testing.T) {
	w := tensor.Window1D{K: 1, S: 2}
	if lb, ub := w.LowerBound(2), w.UpperBound(2); ub >= lb {
		t.Fatalf("interval should be empty: lb %d ub %d", lb, ub)
	}
	out := Scheme{0, 2} // output length 4 over input length 8
	in, err := InputScheme(out, w, 8, PolicyMidpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Equal(Scheme{0, 4}) {
		t.Fatalf("input scheme %v, want (0, 4)", in)
	}
	padB, padE := axisPads(w, in, out, 8)
	if padE[0] != -1 {
		t.Fatalf("patch 0 end pad %d, want -1 (crop)", padE[0])
	}
	// Size identity with flooring: (4 + 0 - 1 - 1)/2 + 1 = 2.
	if got := (4+padB[0]+padE[0]-1)/2 + 1; got != 2 {
		t.Fatalf("patch 0 outputs %d, want 2", got)
	}
	if got := (4+padB[1]+padE[1]-1)/2 + 1; got != 2 {
		t.Fatalf("patch 1 outputs %d, want 2", got)
	}
}

func TestStochasticSchemeWithinWiggle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l, n, omega := 64, 4, 0.2
	for iter := 0; iter < 500; iter++ {
		s, err := StochasticScheme(l, n, omega, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(l); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			lo := (float64(i) - omega) * float64(l) / float64(n)
			hi := (float64(i) + omega) * float64(l) / float64(n)
			// Exact §3.3 interval: ⌈lo⌉ <= s_i <= ⌊hi⌋ (no clamping
			// fires at this dimension size).
			if float64(s[i]) < lo || float64(s[i]) > hi {
				t.Fatalf("s[%d]=%d outside wiggle [%v, %v]", i, s[i], lo, hi)
			}
		}
	}
}

func TestStochasticSchemeZeroOmegaIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s1, err := StochasticScheme(32, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := StochasticScheme(32, 4, 0, rng)
	if !s1.Equal(s2) {
		t.Fatalf("omega=0 should be deterministic: %v vs %v", s1, s2)
	}
	eq, _ := EqualScheme(32, 4)
	if !s1.Equal(eq) {
		t.Fatalf("omega=0 scheme %v != equal scheme %v", s1, eq)
	}
}

func TestStochasticSchemeRejectsBadOmega(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := StochasticScheme(32, 4, 0.5, rng); err == nil {
		t.Fatal("omega = 0.5 accepted")
	}
	if _, err := StochasticScheme(32, 4, -0.1, rng); err == nil {
		t.Fatal("negative omega accepted")
	}
}

// TestStochasticSchemeSmallDims exercises the clamping fixups via
// testing/quick: any (l, n, seed) combination must produce a valid,
// strictly increasing scheme.
func TestStochasticSchemeSmallDims(t *testing.T) {
	f := func(lRaw, nRaw uint8, seed int64) bool {
		l := int(lRaw%60) + 4
		n := int(nRaw%6) + 1
		if n > l {
			n = l
		}
		rng := rand.New(rand.NewSource(seed))
		s, err := StochasticScheme(l, n, 0.2, rng)
		if err != nil {
			return false
		}
		return s.Validate(l) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemeValidate(t *testing.T) {
	// A row with a window checks the output scheme s that InputScheme
	// derives over input length l instead: it must fit the window's
	// output length.
	cases := []struct {
		s  Scheme
		l  int
		ok bool
		w  *tensor.Window1D
	}{
		{Scheme{0}, 5, true, nil},
		{Scheme{0, 2, 4}, 5, true, nil},
		{Scheme{1, 2}, 5, false, nil},
		{Scheme{0, 2, 2}, 5, false, nil},
		{Scheme{0, 5}, 5, false, nil},
		{Scheme{}, 5, false, nil},
		// A 3-wide stride-2 window does not fit length 2: no output.
		{Scheme{0}, 2, false, &tensor.Window1D{K: 3, S: 2}},
	}
	for _, c := range cases {
		if c.w != nil {
			if in, err := InputScheme(c.s, *c.w, c.l, PolicyMidpoint); (err == nil) != c.ok {
				t.Fatalf("InputScheme(%v, %+v, %d) = %v, err=%v want ok=%v", c.s, *c.w, c.l, in, err, c.ok)
			}
			continue
		}
		if err := c.s.Validate(c.l); (err == nil) != c.ok {
			t.Fatalf("Validate(%v, %d): err=%v want ok=%v", c.s, c.l, err, c.ok)
		}
	}
}
