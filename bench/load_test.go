package main

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// An open loop times each op from when it was due, so a stall in one op
// shows up in the latency of the ops queued behind it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	st := openLoop(due, 1, 0, func(_, i int) outcome {
		if i == 0 {
			time.Sleep(stall)
		}
		return opOK
	})
	if st.attempted != len(due) || st.failed != 0 || len(st.lat) != len(due) {
		t.Fatalf("attempted %d failed %d latencies %d", st.attempted, st.failed, len(st.lat))
	}
	// One lane, so latencies are in op order. Op i (i ≥ 1) was due at
	// 10·i ms but could not start before the 50 ms stall ended.
	for i := 1; i < len(due); i++ {
		want := ms(stall - due[i])
		if st.lat[i] < want-1 {
			t.Errorf("op %d: latency %.1f ms, want ≥ %.1f ms (its wait behind the stalled op)", i, st.lat[i], want)
		}
	}
	if st.late != len(due)-1 {
		t.Errorf("late sends = %d, want %d", st.late, len(due)-1)
	}
}

func TestClosedLoopOpLimitNumbersOpsOnce(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	st := closedLoop(limit{ops: 50}, 2, 100, func(_, i int) outcome {
		mu.Lock()
		seen = append(seen, i)
		mu.Unlock()
		if i%10 == 0 {
			return opRefused
		}
		return opOK
	})
	sort.Ints(seen)
	if len(seen) != 50 || seen[0] != 100 || seen[49] != 149 {
		t.Fatalf("ops seen: %v", seen)
	}
	if st.attempted != 50 || st.failed != 5 || st.refused != 5 || st.ok() != 45 || len(st.lat) != 45 {
		t.Errorf("attempted %d failed %d refused %d latencies %d", st.attempted, st.failed, st.refused, len(st.lat))
	}
	if got := st.failRatio(); got != 0.1 {
		t.Errorf("failRatio = %v, want 0.1", got)
	}
}

func TestClosedLoopTimeLimit(t *testing.T) {
	st := closedLoop(limit{d: 30 * time.Millisecond}, 2, 0, func(int, int) outcome {
		time.Sleep(time.Millisecond)
		return opOK
	})
	if st.wall < 30*time.Millisecond || st.wall > 300*time.Millisecond {
		t.Errorf("ran %v for a 30 ms limit", st.wall)
	}
	if st.attempted < 10 {
		t.Errorf("only %d ops in 30 ms of 1 ms ops on 2 lanes", st.attempted)
	}
}

func TestAlternateRunsBothSidesEqually(t *testing.T) {
	var froms []int
	plain, traced := alternate(0, newRecorder(), func(round, from int, rec *recorder) opStats {
		froms = append(froms, from)
		return opStats{attempted: 3, wall: time.Millisecond, lat: []float64{1, 1, 1}}
	})
	if plain.attempted != 6 || traced.attempted != 6 { // two rounds at least
		t.Errorf("plain %d traced %d ops", plain.attempted, traced.attempted)
	}
	for i, f := range froms {
		if f != 3*i {
			t.Errorf("segment %d started at op %d, want %d", i, f, 3*i)
		}
	}
	if got := overheadPct(opStats{attempted: 100, wall: time.Second}, opStats{attempted: 90, wall: time.Second}, false); got != 10 {
		t.Errorf("overheadPct = %v, want 10", got)
	}
}
