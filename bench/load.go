package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// opStats is what one load phase observed.
type opStats struct {
	// lat holds one latency (ms) per successful op (train_sscnn leaves out
	// the steps whose interval is not a step time).
	lat []float64
	// attempted = succeeded + failed; refused ⊆ failed are the ops the
	// program turned away (429/503/504).
	attempted, failed, refused int
	// late counts open-loop sends that started > lateAfter past due.
	late int
	wall time.Duration
}

func (s opStats) ok() int { return s.attempted - s.failed }

// throughput is successful ops over the phase's wall time.
func (s opStats) throughput() float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(s.ok()) / s.wall.Seconds()
}

func (s opStats) failRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// add pools another phase of the same kind into s (wall times add up, so
// throughput stays ops over time spent).
func (s *opStats) add(o opStats) {
	s.lat = append(s.lat, o.lat...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.refused += o.refused
	s.late += o.late
	s.wall += o.wall
}

// outcome is one op's verdict from the workload's do function.
type outcome int

const (
	opOK outcome = iota
	opFailed
	opRefused
)

// doFunc performs op i on client lane and checks its output.
type doFunc func(lane, i int) outcome

type laneStats struct {
	lat                              []float64
	attempted, failed, refused, late int
}

func collect(lanes []laneStats, wall time.Duration) opStats {
	st := opStats{wall: wall}
	for _, l := range lanes {
		st.lat = append(st.lat, l.lat...)
		st.attempted += l.attempted
		st.failed += l.failed
		st.refused += l.refused
		st.late += l.late
	}
	return st
}

func (l *laneStats) record(o outcome, lat time.Duration) {
	l.attempted++
	switch o {
	case opOK:
		l.lat = append(l.lat, ms(lat))
	case opRefused:
		l.refused++
		l.failed++
	default:
		l.failed++
	}
}

// limit bounds a closed loop by time, by op count, or both (a zero field
// does not bound).
type limit struct {
	d   time.Duration
	ops int
}

// closedLoop runs `lanes` clients; each sends its next op when the
// previous one returns, so a slower program receives less load. Ops are
// numbered from `from` in start order across lanes.
func closedLoop(lim limit, lanes, from int, do doFunc) opStats {
	per := make([]laneStats, lanes)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if lim.ops > 0 && n >= lim.ops {
					return
				}
				t0 := time.Now()
				o := do(lane, from+n)
				now := time.Now()
				per[lane].record(o, now.Sub(t0))
				if lim.d > 0 && now.Sub(start) >= lim.d {
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	return collect(per, time.Since(start))
}

// lateAfter is how far past its due time a send may start before the
// generator counts as having run late.
const lateAfter = time.Millisecond

// openLoop sends op i at start+due[i] regardless of how earlier ops
// fared, over `lanes` connections, and times each op from its due time:
// when every lane is busy the op waits, and that wait is part of what a
// user arriving then would see.
func openLoop(due []time.Duration, lanes, from int, do doFunc) opStats {
	per := make([]laneStats, lanes)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(due) {
					return
				}
				at := start.Add(due[n])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				if time.Since(at) > lateAfter {
					per[lane].late++
				}
				per[lane].record(do(lane, from+n), time.Since(at))
			}
		}(lane)
	}
	wg.Wait()
	return collect(per, time.Since(start))
}

// alternate spends budget on short segments of the workload, untraced and
// traced in turn, so whatever else the box is doing hits both alike; seg
// runs one segment of the given round starting at op number `from`. The
// two sums are what bench.trace_overhead_pct compares.
func alternate(budget time.Duration, rec *recorder, seg func(round, from int, rec *recorder) opStats) (plain, traced opStats) {
	deadline := time.Now().Add(budget)
	from := 0
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		p := seg(round, from, nil)
		from += p.attempted
		plain.add(p)
		t := seg(round, from, rec)
		from += t.attempted
		traced.add(t)
	}
	for _, ph := range []struct {
		name string
		st   opStats
	}{{"untraced", plain}, {"traced", traced}} {
		fmt.Fprintf(os.Stderr, "%s segments: sent %d ok %d failed %d (refused %d) in %.2fs\n",
			ph.name, ph.st.attempted, ph.st.ok(), ph.st.failed, ph.st.refused, ph.st.wall.Seconds())
	}
	return plain, traced
}

// overheadPct is how much slower the traced segments ran, as a share of
// the untraced ones: by throughput for a closed loop, and for an open
// loop — whose throughput is its schedule's — by median latency.
func overheadPct(plain, traced opStats, open bool) float64 {
	if open {
		if p := median(plain.lat); p > 0 {
			return (median(traced.lat) - p) / p * 100
		}
		return 0
	}
	if p := plain.throughput(); p > 0 {
		return (p - traced.throughput()) / p * 100
	}
	return 0
}
