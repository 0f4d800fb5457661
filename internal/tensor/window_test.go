package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// windowBand is one draw of the window property: a window along the
// rows of an axis of length l, and a band [lo, hi) of its outputs.
type windowBand struct {
	w         Window1D
	l, lo, hi int
}

func (d windowBand) String() string {
	return fmt.Sprintf("window %+v over %d rows, outputs [%d,%d)", d.w, d.l, d.lo, d.hi)
}

// windowBandOf folds raw draws into K 1–11, S 1–3, pads −1…3, an axis
// of 1–32 rows and a non-empty output band; ok is false when the
// window yields no output over the axis.
func windowBandOf(k, s, pb, pe, l, lo, hi uint8) (d windowBand, ok bool) {
	d.w = Window1D{K: 1 + int(k)%11, S: 1 + int(s)%3, Pb: int(pb)%5 - 1, Pe: int(pe)%5 - 1}
	d.l = 1 + int(l)%32
	lout := d.w.OutSize(d.l)
	if lout < 1 {
		return d, false
	}
	d.lo = int(lo) % lout
	d.hi = d.lo + 1 + int(hi)%(lout-d.lo)
	return d, true
}

// clipBand is the band's input rows [LowerBound(lo), UpperBound(hi))
// clipped to the real rows [0, l).
func (d windowBand) clipBand() (inLo, inHi int) {
	inLo = min(max(d.w.LowerBound(d.lo), 0), d.l)
	return inLo, max(min(d.w.UpperBound(d.hi), d.l), inLo)
}

// checkWindowBand checks one band: (a) [LowerBound(lo), UpperBound(hi))
// is the hull of the virtual rows the band's windows read; (b) the
// clipped input band padded by BandPad yields exactly hi − lo outputs;
// (c) convolution, max pooling and average pooling over that band equal
// rows [lo, hi) of the unsplit op bit for bit. seed draws the width
// axis and the data.
func checkWindowBand(tb testing.TB, d windowBand, seed int64) {
	tb.Helper()
	w := d.w
	first, last := d.lo*w.S-w.Pb, d.lo*w.S-w.Pb
	for o := d.lo; o < d.hi; o++ {
		for k := 0; k < w.K; k++ {
			first, last = min(first, o*w.S-w.Pb+k), max(last, o*w.S-w.Pb+k)
		}
	}
	if lb, ub := w.LowerBound(d.lo), w.UpperBound(d.hi); lb != first || ub != last+1 {
		tb.Fatalf("%v: bounds [%d,%d), windows read [%d,%d)", d, lb, ub, first, last+1)
	}
	inLo, inHi := d.clipBand()
	b, e := w.BandPad(d.lo, d.hi, inLo, inHi, d.l)
	band := Window1D{K: w.K, S: w.S, Pb: b, Pe: e}
	if got := band.OutSize(inHi - inLo); got != d.hi-d.lo {
		tb.Fatalf("%v: input rows [%d,%d) padded (%d,%d) yield %d outputs, want %d", d, inLo, inHi, b, e, got, d.hi-d.lo)
	}
	if inLo == inHi {
		return // the band reads only padding: there is no input to run
	}
	rng := rand.New(rand.NewSource(seed))
	n, c, wd := 1+rng.Intn(2), 1+rng.Intn(3), 3+rng.Intn(4)
	p := ConvParams{KH: w.K, KW: 1 + rng.Intn(3), SH: w.S, SW: 1 + rng.Intn(2),
		Pad: Pad2D{Top: w.Pb, Bottom: w.Pe, Left: rng.Intn(2), Right: rng.Intn(2)}}
	pb := p
	pb.Pad.Top, pb.Pad.Bottom = b, e
	x := randTensor(rng, n, c, d.l, wd)
	xb := New(n, c, inHi-inLo, wd)
	for pl := 0; pl < n*c; pl++ {
		copy(xb.data[pl*(inHi-inLo)*wd:(pl+1)*(inHi-inLo)*wd], x.data[(pl*d.l+inLo)*wd:(pl*d.l+inHi)*wd])
	}
	weight, bias := randTensor(rng, 2, c, p.KH, p.KW), randTensor(rng, 2)
	whole, part := conv2D(x, weight, bias, p), conv2D(xb, weight, bias, pb)
	sameRows(tb, d, "conv", whole, part)
	whole, _ = maxPool2D(x, p)
	part, _ = maxPool2D(xb, pb)
	sameRows(tb, d, "max pool", whole, part)
	sameRows(tb, d, "avg pool", avgPool2D(x, p), avgPool2D(xb, pb))
}

// sameRows fails tb unless part is rows [lo, hi) of whole, bit for bit.
func sameRows(tb testing.TB, d windowBand, op string, whole, part *Tensor) {
	tb.Helper()
	s := whole.shape
	rows := s.N() * s.C()
	want := make([]float32, 0, rows*(d.hi-d.lo)*s.W())
	for pl := 0; pl < rows; pl++ {
		want = append(want, whole.data[(pl*s.H()+d.lo)*s.W():(pl*s.H()+d.hi)*s.W()]...)
	}
	sameBits(tb, fmt.Sprintf("%v: %s over the band", d, op), part.data, want)
}

// TestWindowBandSweep runs checkWindowBand over 2,000 seeded draws and
// checks that the sweep covered the cases BandPad distinguishes.
func TestWindowBandSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var ownEnd, innerEnd, crop, padOnly, sparse int
	for i := 0; i < 2000; i++ {
		u := func() uint8 { return uint8(rng.Intn(256)) }
		d, ok := windowBandOf(u(), u(), u(), u(), u(), u(), u())
		if !ok {
			continue
		}
		checkWindowBand(t, d, int64(i))
		inLo, inHi := d.clipBand()
		b, e := d.w.BandPad(d.lo, d.hi, inLo, inHi, d.l)
		switch {
		case inHi == d.l && d.hi == d.w.OutSize(d.l):
			ownEnd++
		case inHi == d.l:
			innerEnd++ // the band reaches the last row but not the last output
		}
		if b < 0 || e < 0 {
			crop++
		}
		if inLo == inHi {
			padOnly++
		}
		if d.w.K < d.w.S {
			sparse++
		}
	}
	if ownEnd == 0 || innerEnd == 0 || crop == 0 || padOnly == 0 || sparse == 0 {
		t.Fatalf("sweep missed a case: own end pad %d, last row before the last output %d, cropping pad %d, padding-only band %d, K < S %d",
			ownEnd, innerEnd, crop, padOnly, sparse)
	}
}

// FuzzWindowBand drives checkWindowBand from fuzzed windows and bands,
// folded by windowBandOf; plain `go test` runs the seeds.
func FuzzWindowBand(f *testing.F) {
	add := func(k, s, pb, pe, l, lo, hi int, seed int64) {
		f.Add(uint8(k-1), uint8(s-1), uint8(pb+1), uint8(pe+1), uint8(l-1), uint8(lo), uint8(hi-lo-1), seed)
	}
	add(3, 1, 1, 1, 4, 0, 3, 1)   // ends at the last row, not the last output
	add(3, 2, 1, 1, 6, 1, 3, 2)   // last band: the op's own end pad, one row past the windows
	add(1, 2, 0, 0, 8, 0, 2, 3)   // K < S: the windows skip rows
	add(2, 2, -1, 3, 9, 0, 4, 4)  // a cropping begin pad at the start of the axis
	add(1, 1, 3, 3, 5, 0, 1, 5)   // a band over padding only: the end pad crops
	add(11, 3, 2, 2, 30, 3, 7, 6) // AlexNet-style wide stem window
	f.Fuzz(func(t *testing.T, k, s, pb, pe, l, lo, hi uint8, seed int64) {
		d, ok := windowBandOf(k, s, pb, pe, l, lo, hi)
		if !ok {
			t.Skip("no output")
		}
		checkWindowBand(t, d, seed)
	})
}
