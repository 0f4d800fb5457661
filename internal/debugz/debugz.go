// Package debugz is the one debug HTTP surface every long-running
// process serves — the single-process server, the distributed router
// and shard workers, and the trainer dashboard: /healthz, /metricsz,
// /tracez, /profilez and, when enabled, /debug/pprof/. Mount registers
// those routes and builds the request tracer. The surface runs nothing
// in the background: /metricsz computes its derived gauges when it is
// scraped, and /profilez captures a profile window when it is asked.
// A process keeps only its own routes and passes in what differs: its
// health verdict, a scrape-time refresh, and its compiled memory
// timelines.
package debugz

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"runtime"
	rpprof "runtime/pprof"
	"strconv"
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
}

// Config is what a process passes to Mount: its Options, and the hooks
// where processes differ. Nil hooks are skipped.
type Config struct {
	Options
	// Metrics is the registry served at /metricsz.
	Metrics *trace.Metrics
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	Pprof bool
	// Health turns the shared /healthz body into the process's answer:
	// it may change h.Status, and returns the status code and the body,
	// which may embed h to add fields. Nil answers 200 with h.
	Health func(h Health) (code int, body any)
	// Quantiles names latency histograms (<name>_seconds, on
	// trace.LatencyBuckets) whose <name>_p50_seconds and
	// <name>_p99_seconds gauges every Refresh recomputes.
	Quantiles []string
	// Refresh runs at the end of every Surface.Refresh, after the
	// Quantiles and the runtime.* gauges: the hook that recomputes the
	// process's own derived gauges at scrape time.
	Refresh func(*trace.Metrics)
	// Timelines lists the memory timelines /profilez shows.
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
	mounted time.Time
}

// Mount registers the debug routes on mux and builds the request
// tracer. A nil mux registers nothing: a process without a debug
// listener still gets the tracer and Refresh. Mount starts no
// goroutine; uptime counts from it.
func Mount(mux *http.ServeMux, cfg Config) *Surface {
	s := &Surface{cfg: cfg, mounted: time.Now()}
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

// Tracer returns the request tracer (nil when TraceSample is 0).
func (s *Surface) Tracer() *trace.WallTracer { return s.tracer }

// Uptime is the time since Mount.
func (s *Surface) Uptime() time.Duration { return time.Since(s.mounted) }

// Refresh recomputes the registry's scrape-time gauges: the Quantiles,
// the Go runtime's runtime.* gauges (heap, GC, goroutines), then
// Config.Refresh. /metricsz runs it before every dump; a process that
// ships its registry another way runs it before taking the snapshot.
func (s *Surface) Refresh() {
	m := s.cfg.Metrics
	for _, name := range s.cfg.Quantiles {
		h := m.Histogram(name+"_seconds", trace.LatencyBuckets)
		m.Gauge(name + "_p50_seconds").Set(h.Quantile(0.5))
		m.Gauge(name + "_p99_seconds").Set(h.Quantile(0.99))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Gauge("runtime.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	m.Gauge("runtime.heap_sys_bytes").Set(float64(ms.HeapSys))
	m.Gauge("runtime.heap_objects").Set(float64(ms.HeapObjects))
	m.Gauge("runtime.next_gc_bytes").Set(float64(ms.NextGC))
	m.Gauge("runtime.gc_count").Set(float64(ms.NumGC))
	m.Gauge("runtime.gc_pause_total_seconds").Set(float64(ms.PauseTotalNs) / 1e9)
	m.Gauge("runtime.goroutines").Set(float64(runtime.NumGoroutine()))
	if s.cfg.Refresh != nil {
		s.cfg.Refresh(m)
	}
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

// metricsz serves the registry after a Refresh: JSON by default,
// Prometheus text exposition 0.0.4 when the client asks for text/plain
// (what a Prometheus scraper's Accept header implies) or ?format=prom,
// and "kind name value" lines with ?format=text.
func (s *Surface) metricsz(w http.ResponseWriter, r *http.Request) {
	s.Refresh()
	m := s.cfg.Metrics
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

// profilez captures one CPU window of ?seconds= (a decimal in (0, 30],
// default 1; a closed request ends it early) and serves its
// per-op and per-function attribution next to the process's compiled
// memory timelines: HTML by default, ?format=json for machines, and
// the window's raw profile with ?download=cpu. ?download=heap serves a
// live heap profile without a window. A capture that finds another CPU
// profile running answers 409.
func (s *Surface) profilez(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("download") == "heap" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="heap.pprof"`)
		rpprof.Lookup("heap").WriteTo(w, 0) //nolint:errcheck
		return
	}
	window := time.Second
	if v := q.Get("seconds"); v != "" {
		sec, err := strconv.ParseFloat(v, 64)
		if err != nil || !(sec > 0 && sec <= 30) {
			WriteError(w, http.StatusBadRequest, "seconds must be a decimal in (0, 30]")
			return
		}
		window = time.Duration(sec * float64(time.Second))
	}
	rep, err := memobs.Capture(r.Context(), window)
	switch {
	case errors.Is(err, memobs.ErrBusy):
		WriteError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if q.Get("download") == "cpu" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="cpu.pprof"`)
		w.Write(rep.CPUProfile) //nolint:errcheck
		return
	}
	var timelines []*memobs.MemTimeline
	if s.cfg.Timelines != nil {
		timelines = s.cfg.Timelines()
	}
	if q.Get("format") == "json" {
		WriteJSON(w, http.StatusOK, struct {
			Report    *memobs.Report        `json:"report"`
			Timelines []*memobs.MemTimeline `json:"timelines,omitempty"`
		}{rep, timelines})
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	memobs.WriteHTML(w, rep, timelines)
}
