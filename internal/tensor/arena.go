package tensor

import (
	"fmt"
	"sync"

	"splitcnn/internal/trace"
)

// Arena is a size-bucketed free list of tensor storage. It is the host
// analogue of the paper's first-fit device memory pool (§4): instead of
// allocating a fresh buffer per tensor and leaning on the garbage
// collector, the execution engine acquires workspace from a warm pool
// and returns it when the buffer's lifetime ends, so steady-state
// training steps perform zero heap allocations for activations,
// gradients, and im2col scratch.
//
// Buffers are bucketed by power-of-two element count: a Get for n
// elements is served by any pooled buffer of the smallest class >= n,
// which keeps fragmentation bounded (< 2x) without a planning pass.
// An Arena is safe for concurrent use; giving each executor its own
// keeps Get/Put uncontended.
//
// All methods are nil-receiver safe: a nil *Arena degrades to plain
// allocation, so kernels can accept an optional arena without branching
// at every call site.
type Arena struct {
	mu   sync.Mutex
	free map[int][]*Tensor

	gets, hits     int64
	inUseBytes     int64
	highWaterBytes int64
	pooledBytes    int64
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][]*Tensor)}
}

// Get returns a zero-filled tensor of the given shape, reusing pooled
// storage when a large-enough buffer is available. On a nil arena it is
// equivalent to New.
func (a *Arena) Get(dims ...int) *Tensor { return a.get(true, dims) }

// GetRaw is Get without the zero fill, for buffers whose every element
// the caller overwrites (GEMM outputs with beta=0, copy targets, ...).
func (a *Arena) GetRaw(dims ...int) *Tensor { return a.get(false, dims) }

func (a *Arena) get(zero bool, dims []int) *Tensor {
	if a == nil {
		return New(dims...)
	}
	// Validation is open-coded: Shape(dims).Validate() would let dims
	// escape into its error formatting, and an escaping parameter makes
	// every Get(n, c, h, w) call site heap-allocate its variadic slice —
	// exactly the steady-state allocations the arena exists to remove.
	if len(dims) == 0 {
		panic("tensor.Arena.Get: empty shape")
	}
	elems := 1
	for i, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor.Arena.Get: dimension %d is %d, want > 0", i, d))
		}
		elems *= d
	}
	class := pow2ceil(elems)
	a.mu.Lock()
	a.gets++
	var t *Tensor
	if st := a.free[class]; len(st) > 0 {
		t = st[len(st)-1]
		st[len(st)-1] = nil
		a.free[class] = st[:len(st)-1]
		a.hits++
	} else {
		a.pooledBytes += int64(class) * 4
	}
	a.inUseBytes += int64(class) * 4
	if a.inUseBytes > a.highWaterBytes {
		a.highWaterBytes = a.inUseBytes
	}
	a.mu.Unlock()
	if t == nil {
		t = &Tensor{data: make([]float32, class)} // fresh storage is already zero
		t.data = t.data[:elems]
		t.shape = append(Shape(nil), dims...)
		t.arena = a
		return t
	}
	t.data = t.data[:elems]
	t.shape = append(t.shape[:0], dims...)
	t.arena = a
	if zero {
		clear(t.data)
	}
	return t
}

// Put returns t's storage to the arena. Only tensors vended by this
// arena's Get/GetRaw and not already returned are reclaimed; any other
// tensor (including nil, plain New tensors, Reshape aliases, and other
// arenas' tensors) is ignored, so callers may Put unconditionally.
// After Put the tensor's contents must not be used: the same *Tensor
// (shape rewritten, data resliced) is handed out by a later Get.
func (a *Arena) Put(t *Tensor) {
	if a == nil || t == nil || t.arena != a {
		return
	}
	t.arena = nil
	class := cap(t.data)
	a.mu.Lock()
	a.inUseBytes -= int64(class) * 4
	a.free[class] = append(a.free[class], t)
	a.mu.Unlock()
}

// ArenaStats is a point-in-time snapshot of an arena's counters.
type ArenaStats struct {
	// Gets counts Get/GetRaw calls; Hits counts those served from the
	// pool rather than a fresh allocation.
	Gets, Hits int64
	// InUseBytes is storage currently vended; HighWaterBytes its maximum
	// over the arena's lifetime; PooledBytes the total storage the arena
	// owns (vended + free), i.e. its heap footprint.
	InUseBytes, HighWaterBytes, PooledBytes int64
}

// HitRate returns the fraction of gets served from the pool, in [0, 1].
func (s ArenaStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Add accumulates another arena's counters — how a process with one
// arena per executor (the serving registry)
// reports a single aggregate occupancy.
func (s ArenaStats) Add(o ArenaStats) ArenaStats {
	return ArenaStats{
		Gets: s.Gets + o.Gets, Hits: s.Hits + o.Hits,
		InUseBytes:     s.InUseBytes + o.InUseBytes,
		HighWaterBytes: s.HighWaterBytes + o.HighWaterBytes,
		PooledBytes:    s.PooledBytes + o.PooledBytes,
	}
}

// Record publishes the snapshot as gauges under prefix (conventionally
// "arena"): <prefix>.in_use_bytes, .high_water_bytes, .pooled_bytes and
// .hit_rate — the arena-occupancy series the server's /metricsz
// refresh and the trainer both feed.
func (s ArenaStats) Record(prefix string, reg *trace.Metrics) {
	reg.Gauge(prefix + ".in_use_bytes").Set(float64(s.InUseBytes))
	reg.Gauge(prefix + ".high_water_bytes").Set(float64(s.HighWaterBytes))
	reg.Gauge(prefix + ".pooled_bytes").Set(float64(s.PooledBytes))
	reg.Gauge(prefix + ".hit_rate").Set(s.HitRate())
}

// Stats returns a snapshot of the arena's counters. A nil arena reports
// zeros.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{
		Gets: a.gets, Hits: a.hits,
		InUseBytes:     a.inUseBytes,
		HighWaterBytes: a.highWaterBytes,
		PooledBytes:    a.pooledBytes,
	}
}
