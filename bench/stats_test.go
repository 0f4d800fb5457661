package main

import (
	"math"
	"testing"
)

func TestSupportedPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct{ n, want int }{
		{19, 0}, {20, 50}, {100, 90}, {199, 94}, {200, 95}, {256, 96}, {1000, 99}, {100000, 99},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, float64(c.want)) < tailBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, c.want, beyond(c.n, float64(c.want)))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {0, 1}, {100, 10}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got, want := beyond(10, 90), 1; got != want {
		t.Errorf("beyond(10, 90) = %d, want %d", got, want)
	}
}

// quartileSpread must be Python's statistics.quantiles(v, n=4): for
// 1..10 that gives [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([10, 20], n=4) = [7.5, 15, 22.5].
	if got, want := quartileSpread([]float64{10, 20}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("two-point spread = %v, want %v", got, want)
	}
}

func TestMedianResult(t *testing.T) {
	run := func(ok bool, attempted, failed int, v float64) result {
		return result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{"op_p50_ms": {v, "ms"}}}
	}
	got := medianResult([]result{run(true, 10, 0, 9), run(true, 12, 0, 30), run(true, 11, 0, 10)})
	if !got.Correct || got.Attempted != 33 || got.Failed != 0 || got.Metrics["op_p50_ms"] != (metricValue{10, "ms"}) {
		t.Errorf("medianResult = %+v", got)
	}
	if got := medianResult([]result{run(true, 1, 0, 1), run(false, 1, 1, 1)}); got.Correct || got.Failed != 1 {
		t.Errorf("one wrong run must make the cell wrong: %+v", got)
	}
}
