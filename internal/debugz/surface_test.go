package debugz_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"splitcnn/internal/debugz"
	"splitcnn/internal/trace"
)

// TestMountStartsNothing: mounting the surface and reading every route,
// a profile capture included, leaves no goroutine behind — the surface
// works only while it is read.
func TestMountStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	mux := http.NewServeMux()
	debugz.Mount(mux, debugz.Config{
		Options: debugz.Options{TraceSample: 1}, Metrics: trace.NewMetrics(), Pprof: true,
		Quantiles: []string{"serve.latency"},
	})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Mount started %d goroutines", n-before)
	}
	for _, path := range []string{"/healthz", "/metricsz", "/tracez", "/profilez?seconds=0.05", "/profilez?download=heap"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	// The CPU profiler's writer goroutine exits just after the capture
	// stops it; earlier tests' servers may still be winding down, so
	// only a count above the baseline is a leak.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before {
		t.Fatalf("reading the surface left %d goroutines running", n-before)
	}
}

// TestRefresh: one Refresh publishes the quantile gauges and the
// runtime.* gauges, then runs the process's hook over them.
func TestRefresh(t *testing.T) {
	m := trace.NewMetrics()
	m.Histogram("serve.latency_seconds", trace.LatencyBuckets).Observe(0.002)
	var hookSaw float64
	s := debugz.Mount(nil, debugz.Config{
		Metrics: m, Quantiles: []string{"serve.latency"},
		Refresh: func(m *trace.Metrics) { hookSaw = m.Gauge("runtime.goroutines").Value() },
	})
	s.Refresh()
	for _, g := range []string{
		"runtime.heap_alloc_bytes", "runtime.heap_sys_bytes", "runtime.heap_objects",
		"runtime.next_gc_bytes", "runtime.goroutines", "serve.latency_p50_seconds", "serve.latency_p99_seconds",
	} {
		if v := m.Gauge(g).Value(); v <= 0 {
			t.Errorf("%s = %v, want > 0", g, v)
		}
	}
	if hookSaw <= 0 {
		t.Error("the Refresh hook ran before the runtime.* gauges")
	}
}
