package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): fewer and the "percentile" is a handful of
// outliers, not a property of the distribution.
const tailBeyond = 10

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending slice
// (0 for an empty one).
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	return asc[min(max(rank, 1), len(asc))-1]
}

func median(v []float64) float64 { return percentile(sorted(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// beyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - min(max(rank, 1), n)
}

// supportedPercentile picks the highest whole percentile in [50, 99]
// that still has tailBeyond samples beyond it; 0 when even the median
// does not.
func supportedPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if beyond(n, float64(p)) >= tailBeyond {
			return p
		}
	}
	return 0
}

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(v, n=4) (exclusive method) — the driver's
// steadiness measure, reproduced so `-aa` speaks the same number.
func quartileSpread(v []float64) float64 {
	asc := sorted(v)
	n := len(asc)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] at the ends: extrapolates, as Python does
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// timeLoop calls f until budget is spent (at least minIters times) and
// returns each call's duration in milliseconds.
func timeLoop(budget time.Duration, minIters int, f func()) []float64 {
	var out []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		f()
		out = append(out, ms(time.Since(t0)))
	}
	return out
}
