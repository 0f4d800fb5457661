package trace

import (
	"runtime"
	"sync"
	"time"
)

// RuntimeSampler is a background goroutine feeding Go runtime state
// into a registry as runtime.* gauges on a fixed interval — the
// process-health counterpart of the planner's mem.* gauges: heap
// footprint, GC pause accumulation, goroutine count. Extra sample
// hooks let owners fold in their own periodic gauges (the serving
// layer samples its executor arenas' occupancy this way).
type RuntimeSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartRuntimeSampler samples immediately, then every interval
// (minimum 10ms), until Stop. Each non-nil extra hook runs after the
// runtime gauges on every tick.
func StartRuntimeSampler(m *Metrics, interval time.Duration, extra ...func(*Metrics)) *RuntimeSampler {
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	s := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.Gauge("runtime.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
		m.Gauge("runtime.heap_sys_bytes").Set(float64(ms.HeapSys))
		m.Gauge("runtime.heap_objects").Set(float64(ms.HeapObjects))
		m.Gauge("runtime.next_gc_bytes").Set(float64(ms.NextGC))
		m.Gauge("runtime.gc_count").Set(float64(ms.NumGC))
		m.Gauge("runtime.gc_pause_total_seconds").Set(float64(ms.PauseTotalNs) / 1e9)
		m.Gauge("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
		for _, f := range extra {
			if f != nil {
				f(m)
			}
		}
		m.Counter("runtime.samples").Add(1)
	}
	sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Stop halts the sampler and waits for its goroutine to exit. It is
// idempotent and safe on a nil sampler.
func (s *RuntimeSampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
