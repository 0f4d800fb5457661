// Package debugz is the one debug HTTP surface every long-running
// process serves — the single-process server, the distributed router
// and shard workers, and the trainer dashboard: /healthz, /metricsz,
// /tracez, /profilez and, when enabled, /debug/pprof/. Mount registers
// those routes and builds the request tracer; Start and Stop run the
// runtime sampler and the continuous profiler behind them. A process
// keeps only its own routes and passes in what differs: its health
// verdict, a scrape-time refresh, and its measured memory timelines.
package debugz

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"splitcnn/internal/buildinfo"
	"splitcnn/internal/memobs"
	"splitcnn/internal/trace"
)

// Options are the debug settings a process's owner chooses. The
// server's, router's and worker's option structs each carry them as
// one Debug value.
type Options struct {
	// TraceSample in (0, 1] enables request-scoped wall-clock tracing:
	// that fraction of requests record their stage spans into a Chrome
	// trace, served at /tracez. 0 disables tracing.
	TraceSample float64
	// RuntimeMetricsInterval, when positive, runs a background sampler
	// feeding runtime.* gauges (heap, GC, goroutines) into the registry
	// on that interval.
	RuntimeMetricsInterval time.Duration
	// ProfileWindow/ProfileEvery override the continuous profiler's
	// capture window and duty-cycle period (defaults 1s / 15s).
	ProfileWindow time.Duration
	ProfileEvery  time.Duration
}

// Config is what a process passes to Mount: its Options, and the hooks
// where processes differ. Nil hooks are skipped.
type Config struct {
	Options
	// Metrics is the registry served at /metricsz and fed by the
	// runtime sampler and the profiler.
	Metrics *trace.Metrics
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	Pprof bool
	// Profile runs the continuous profiler (windowed in-process CPU and
	// heap capture, joined against op spans) between Start and Stop.
	// Without it /profilez answers 404.
	Profile bool
	// Health turns the shared /healthz body into the process's answer:
	// it may change h.Status, and returns the status code and the body,
	// which may embed h to add fields. Nil answers 200 with h.
	Health func(h Health) (code int, body any)
	// Quantiles names latency histograms (<name>_seconds, on
	// trace.LatencyBuckets) whose <name>_p50_seconds and
	// <name>_p99_seconds gauges every /metricsz scrape recomputes.
	Quantiles []string
	// Refresh runs before every /metricsz dump, after Quantiles: the
	// hook that recomputes other derived gauges at scrape time.
	Refresh func(*trace.Metrics)
	// Sample runs on every runtime-sampler tick, after the runtime
	// gauges.
	Sample func(*trace.Metrics)
	// Timelines lists the measured memory timelines /profilez shows.
	Timelines func() []*memobs.MemTimeline
}

// Health is the /healthz body every process shares: its status, and
// the build provenance and uptime of the answering binary.
type Health struct {
	Status string `json:"status"`
	buildinfo.Info
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Surface is one process's mounted debug surface.
type Surface struct {
	cfg     Config
	tracer  *trace.WallTracer
	started time.Time
	sampler *trace.RuntimeSampler
	prof    *memobs.Profiler
}

// Mount registers the debug routes on mux and builds the request
// tracer. A nil mux registers nothing: a process without a debug
// listener still gets the tracer and the samplers. Mount starts
// nothing; call Start before serving mux.
func Mount(mux *http.ServeMux, cfg Config) *Surface {
	s := &Surface{cfg: cfg}
	if cfg.TraceSample > 0 {
		s.tracer = trace.NewWallTracer(cfg.TraceSample, 1)
	}
	if mux == nil {
		return s
	}
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/metricsz", s.metricsz)
	mux.HandleFunc("/tracez", s.tracez)
	mux.HandleFunc("/profilez", s.profilez)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Start starts the uptime clock, the runtime sampler (when
// RuntimeMetricsInterval > 0) and the continuous profiler (when
// Profile is set).
func (s *Surface) Start() {
	s.started = time.Now()
	if iv := s.cfg.RuntimeMetricsInterval; iv > 0 {
		s.sampler = trace.StartRuntimeSampler(s.cfg.Metrics, iv, s.cfg.Sample)
	}
	if s.cfg.Profile {
		s.prof = memobs.StartProfiler(memobs.ProfilerOptions{
			Window: s.cfg.ProfileWindow, Every: s.cfg.ProfileEvery, Metrics: s.cfg.Metrics,
		})
	}
}

// Stop halts the sampler and the profiler and waits for them to exit.
// It is safe without a prior Start.
func (s *Surface) Stop() {
	s.sampler.Stop()
	s.prof.Stop()
}

// Tracer returns the request tracer (nil when TraceSample is 0).
func (s *Surface) Tracer() *trace.WallTracer { return s.tracer }

// Uptime is the time since Start (0 before it).
func (s *Surface) Uptime() time.Duration {
	if s.started.IsZero() {
		return 0
	}
	return time.Since(s.started)
}

// WriteJSON answers code with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// WriteError answers code with the JSON error body {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

// metricsz serves the registry, refreshed by Config.Quantiles and
// Config.Refresh: JSON by
// default, Prometheus text exposition 0.0.4 when the client asks for
// text/plain (what a Prometheus scraper's Accept header implies) or
// ?format=prom, and "kind name value" lines with ?format=text.
func (s *Surface) metricsz(w http.ResponseWriter, r *http.Request) {
	m := s.cfg.Metrics
	for _, name := range s.cfg.Quantiles {
		h := m.Histogram(name+"_seconds", trace.LatencyBuckets)
		m.Gauge(name + "_p50_seconds").Set(h.Quantile(0.5))
		m.Gauge(name + "_p99_seconds").Set(h.Quantile(0.99))
	}
	if s.cfg.Refresh != nil {
		s.cfg.Refresh(m)
	}
	switch format := r.URL.Query().Get("format"); {
	case format == "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		m.WriteText(w)
	case format == "prom" || (format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain")):
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	default:
		w.Header().Set("Content-Type", "application/json")
		m.WriteJSON(w)
	}
}

func (s *Surface) healthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "ok", Info: buildinfo.Get(), UptimeSeconds: s.Uptime().Seconds()}
	code, body := http.StatusOK, any(h)
	if s.cfg.Health != nil {
		code, body = s.cfg.Health(h)
	}
	WriteJSON(w, code, body)
}

// tracez dumps the request-scoped wall-clock trace accumulated so far
// as Chrome trace_event JSON — the live counterpart of `splitcnn
// trace`'s simulated timelines.
func (s *Surface) tracez(w http.ResponseWriter, _ *http.Request) {
	if s.tracer == nil {
		WriteError(w, http.StatusNotFound, "request tracing disabled (start with a trace sample rate > 0)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.tracer.Trace().WriteJSON(w) //nolint:errcheck
}

// profilez serves the continuous profiler's latest window (per-op
// CPU/alloc attribution, flat function tables, pprof downloads) and
// the process's measured memory timelines.
func (s *Surface) profilez(w http.ResponseWriter, r *http.Request) {
	if s.prof == nil {
		WriteError(w, http.StatusNotFound, "continuous profiling disabled")
		return
	}
	memobs.Handler(s.prof, s.cfg.Timelines)(w, r)
}
