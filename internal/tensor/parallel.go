package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum amount of work (in "items") below
// which kernels run serially; fan-out costs more than it saves on tiny
// tensors.
const parallelThreshold = 1 << 12

// The kernel worker pool: a fixed set of persistent goroutines that
// execute chunks of parallel kernels. Unlike the previous
// spawn-per-call scheme, no goroutines are created on the hot path —
// a parallel section enqueues chunk descriptors on one shared channel
// and the workers (plus the calling goroutine) drain it. A caller
// waiting for its chunks steals other queued chunks, so nested or
// concurrent parallel sections (e.g. serving instances all hitting GEMM
// at once) cannot deadlock the pool.
type workerPool struct {
	tasks   chan poolTask
	spawned atomic.Int64
}

type poolTask struct {
	fn      func(lo, hi int)
	lo, hi  int
	pending *atomic.Int64
}

var kernelPool = &workerPool{tasks: make(chan poolTask, 512)}

// parWorkers is the number of goroutines (including the caller) a
// parallel section may occupy. Set once at init from GOMAXPROCS;
// adjustable via SetParallelism.
var parWorkers atomic.Int64

func init() { SetParallelism(runtime.GOMAXPROCS(0)) }

func (p *workerPool) worker() {
	for t := range p.tasks {
		t.fn(t.lo, t.hi)
		t.pending.Add(-1)
	}
}

// SetParallelism sets the number of goroutines (including the calling
// one) tensor kernels may use and returns the previous setting. It
// defaults to GOMAXPROCS. Values below 1 are clamped to 1 (fully
// serial, allocation-free kernels). Worker goroutines are spawned
// lazily up to the high-water setting and then persist for the process
// lifetime; they are idle (blocked on a channel) when no kernel runs.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	prev := int(parWorkers.Swap(int64(n)))
	for kernelPool.spawned.Load() < int64(n-1) {
		kernelPool.spawned.Add(1)
		go kernelPool.worker()
	}
	return prev
}

// parallelRange splits [0, n) into contiguous chunks and runs body on
// each chunk via the worker pool. The arg value is threaded through to
// body so that hot kernels can use top-level functions plus a value
// argument instead of closures: on the serial path — taken when n <
// minPar or parallelism is 1 — this performs zero heap allocations,
// which is what lets a warmed-up training step run allocation-free.
// minPar is the smallest n worth fanning out (callers scale it by
// per-item work).
func parallelRange[A any](n, minPar int, arg A, body func(A, int, int)) {
	if n <= 0 {
		return
	}
	w := int(parWorkers.Load())
	if w <= 1 || n < minPar || n == 1 {
		// The fan-out lives in a separate function: there the arg copy
		// is captured by a channel-escaping closure and must live on the
		// heap, and that escape must not tax this serial path (escaping
		// parameters are heap-moved at function entry, branch or not).
		body(arg, 0, n)
		return
	}
	parallelRangePar(n, w, arg, body)
}

func parallelRangePar[A any](n, w int, arg A, body func(A, int, int)) {
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	var pending atomic.Int64
	fn := func(lo, hi int) { body(arg, lo, hi) }
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		pending.Add(1)
		select {
		case kernelPool.tasks <- poolTask{fn: fn, lo: lo, hi: lo + chunk, pending: &pending}:
		default:
			// Queue saturated (deeply nested sections): run inline.
			fn(lo, lo+chunk)
			pending.Add(-1)
		}
	}
	fn(lo, n) // the caller computes the last chunk itself
	for pending.Load() > 0 {
		// Steal queued work (ours or anyone's) while waiting; this is
		// what makes nested parallel sections deadlock-free.
		select {
		case t := <-kernelPool.tasks:
			t.fn(t.lo, t.hi)
			t.pending.Add(-1)
		default:
			runtime.Gosched()
		}
	}
}

// scratchPool is a never-shrinking free list of float32 scratch slices
// bucketed by power-of-two capacity, used for GEMM packing panels and
// similar kernel-internal workspace. Unlike sync.Pool it is never
// drained by the garbage collector, so a warmed-up training loop hits
// it every time and performs no steady-state allocations. Its footprint
// is bounded by the largest working set of concurrently running
// kernels, a few MB in practice.
var scratchPool = struct {
	mu   sync.Mutex
	free map[int][][]float32
}{free: make(map[int][][]float32)}

func getScratch(n int) []float32 {
	class := pow2ceil(n)
	scratchPool.mu.Lock()
	st := scratchPool.free[class]
	var s []float32
	if len(st) > 0 {
		s = st[len(st)-1]
		scratchPool.free[class] = st[:len(st)-1]
	}
	scratchPool.mu.Unlock()
	if s == nil {
		s = make([]float32, class)
	}
	return s[:n]
}

func putScratch(s []float32) {
	if cap(s) == 0 {
		return
	}
	class := cap(s)
	s = s[:class]
	scratchPool.mu.Lock()
	scratchPool.free[class] = append(scratchPool.free[class], s)
	scratchPool.mu.Unlock()
}

// pow2ceil returns the smallest power of two >= n (and >= 64, so tiny
// buffers share a bucket).
func pow2ceil(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}
