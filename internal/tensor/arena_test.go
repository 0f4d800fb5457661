package tensor

import (
	"math/rand"
	"testing"

	"splitcnn/internal/trace"
)

// TestArenaReuse checks that a returned tensor is handed back for the
// next same-class request, and that the stats see it as a hit.
func TestArenaReuse(t *testing.T) {
	a := NewArena()
	t1 := a.Get(4, 8)
	if got := a.Stats(); got.Gets != 1 || got.Hits != 0 {
		t.Fatalf("after first get: %+v", got)
	}
	a.Put(t1)
	t2 := a.Get(4, 8)
	if t2 != t1 {
		t.Fatalf("expected pooled tensor back, got a fresh one")
	}
	if got := a.Stats(); got.Gets != 2 || got.Hits != 1 {
		t.Fatalf("after reuse: %+v", got)
	}
	if hr := a.Stats().HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
}

// TestArenaCrossShapeReuse: buckets are element-count classes, so a
// [4,8] buffer serves a later [32] or [2,4,2,2] request.
func TestArenaCrossShapeReuse(t *testing.T) {
	a := NewArena()
	t1 := a.Get(4, 8) // 32 elems
	a.Put(t1)
	t2 := a.Get(2, 4, 2, 2) // also 32 elems, same class
	if t2 != t1 {
		t.Fatalf("expected same-class buffer reuse across shapes")
	}
	if !t2.Shape().Equal(Shape{2, 4, 2, 2}) {
		t.Fatalf("reused tensor has shape %v", t2.Shape())
	}
}

// TestArenaGetZeroes: Get must return zeroed storage even when the
// buffer is recycled; GetRaw makes no such promise.
func TestArenaGetZeroes(t *testing.T) {
	a := NewArena()
	t1 := a.Get(16)
	t1.Fill(3)
	a.Put(t1)
	t2 := a.Get(16)
	for i, v := range t2.Data() {
		if v != 0 {
			t.Fatalf("recycled Get tensor dirty at %d: %v", i, v)
		}
	}
}

// TestArenaDoublePut: a second Put of the same tensor is a no-op (the
// ownership tag is cleared on the first), so pool accounting and the
// free lists stay consistent.
func TestArenaDoublePut(t *testing.T) {
	a := NewArena()
	t1 := a.Get(8)
	a.Put(t1)
	a.Put(t1) // must not double-insert
	t2 := a.Get(8)
	t3 := a.Get(8)
	if t2 != t1 && t3 == t1 {
		t.Fatalf("tensor vended twice after double Put")
	}
	if t2 == t3 {
		t.Fatalf("same tensor vended to two live requests")
	}
}

// TestArenaForeignPut: tensors the arena did not vend (plain New,
// clones, another arena's buffers) are silently ignored.
func TestArenaForeignPut(t *testing.T) {
	a, b := NewArena(), NewArena()
	plain := New(8)
	a.Put(plain)
	other := b.Get(8)
	a.Put(other) // owned by b, not a
	clone := a.Get(8).Clone()
	a.Put(clone) // clones never carry ownership
	if st := a.Stats(); st.PooledBytes != pow2ceilBytes(8) {
		t.Fatalf("foreign puts changed the pool: %+v", st)
	}
	b.Put(other) // still owned by b
	if st := b.Stats(); st.InUseBytes != 0 {
		t.Fatalf("b did not take its own tensor back: %+v", st)
	}
}

func pow2ceilBytes(elems int) int64 { return int64(pow2ceil(elems)) * 4 }

// TestArenaStatsAccounting tracks in-use, high-water and pooled bytes
// through a get/put cycle.
func TestArenaStatsAccounting(t *testing.T) {
	a := NewArena()
	t1 := a.Get(100) // class 128
	t2 := a.Get(10)  // class 64 (minimum)
	want := pow2ceilBytes(100) + pow2ceilBytes(10)
	st := a.Stats()
	if st.InUseBytes != want || st.HighWaterBytes != want || st.PooledBytes != want {
		t.Fatalf("after gets: %+v, want all %d", st, want)
	}
	a.Put(t1)
	a.Put(t2)
	st = a.Stats()
	if st.InUseBytes != 0 || st.HighWaterBytes != want || st.PooledBytes != want {
		t.Fatalf("after puts: %+v", st)
	}
}

// TestArenaNil: a nil arena degrades to plain allocation so kernels can
// be written against the arena API unconditionally.
func TestArenaNil(t *testing.T) {
	var a *Arena
	t1 := a.Get(4, 4)
	if !t1.Shape().Equal(Shape{4, 4}) {
		t.Fatalf("nil-arena Get shape %v", t1.Shape())
	}
	for _, v := range t1.Data() {
		if v != 0 {
			t.Fatalf("nil-arena Get not zeroed")
		}
	}
	a.Put(t1) // no-op, must not panic
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Fatalf("nil-arena stats %+v", st)
	}
}

// TestArenaKernelsSteadyState: running the arena-backed convolution
// twice must not grow the pool the second time — every buffer the step
// takes is returned and reused.
func TestArenaKernelsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewArena()
	x := randTensor(rng, 2, 3, 9, 9)
	w := randTensor(rng, 4, 3, 3, 3)
	p := ConvParams{KH: 3, KW: 3, SH: 2, SW: 2, Pad: Symmetric(1)}
	step := func() {
		out := a.GetRaw(2, 4, 5, 5)
		Conv2DInto(a, out, x, w, nil, p)
		gw := a.Get(w.Shape()...)
		gx := Conv2DBackwardArena(a, x, w, out, p, gw, nil, true)
		a.Put(out)
		a.Put(gw)
		a.Put(gx)
	}
	step()
	pooled := a.Stats().PooledBytes
	for i := 0; i < 3; i++ {
		step()
	}
	st := a.Stats()
	if st.PooledBytes != pooled {
		t.Fatalf("pool grew across steady-state steps: %d -> %d", pooled, st.PooledBytes)
	}
	if st.InUseBytes != 0 {
		t.Fatalf("leaked %d in-use bytes", st.InUseBytes)
	}
}

// TestArenaStatsRecord pins the gauge family ArenaStats.Record
// publishes — including arena.hit_rate, which the memory observability
// plane's dashboards and /metricsz scrapers depend on.
func TestArenaStatsRecord(t *testing.T) {
	a := NewArena()
	t1 := a.Get(100)
	a.Put(t1)
	t2 := a.Get(100) // pool hit
	_ = t2
	st := a.Stats()
	if st.Gets != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 gets / 1 hit", st)
	}
	met := trace.NewMetrics()
	st.Record("arena", met)
	if got := met.Gauge("arena.hit_rate").Value(); got != 0.5 {
		t.Fatalf("arena.hit_rate = %g, want 0.5", got)
	}
	if got := met.Gauge("arena.in_use_bytes").Value(); int64(got) != st.InUseBytes {
		t.Fatalf("arena.in_use_bytes = %g, want %d", got, st.InUseBytes)
	}
	if got := met.Gauge("arena.high_water_bytes").Value(); int64(got) != st.HighWaterBytes {
		t.Fatalf("arena.high_water_bytes = %g, want %d", got, st.HighWaterBytes)
	}
	if got := met.Gauge("arena.pooled_bytes").Value(); int64(got) != st.PooledBytes {
		t.Fatalf("arena.pooled_bytes = %g, want %d", got, st.PooledBytes)
	}
	// HitRate must be well-defined on a fresh arena (no gets yet).
	if hr := (ArenaStats{}).HitRate(); hr != 0 {
		t.Fatalf("empty HitRate = %g, want 0", hr)
	}
}
