package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"splitcnn/internal/buildinfo"
	"splitcnn/internal/memobs"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// Options tune the HTTP serving layer; zero values select defaults.
type Options struct {
	// QueueDepth: see BatcherOptions (applied per model).
	QueueDepth int
	// RequestTimeout is the default per-request deadline covering queue
	// wait and execution (default 2s). A request's timeout_ms field may
	// shorten — never extend — it.
	RequestTimeout time.Duration
	// Metrics receives the serve.* instruments; nil allocates a private
	// registry (exposed at /metricsz either way).
	Metrics *trace.Metrics
	// Logger receives structured request and lifecycle logs. Nil
	// discards them — the library stays silent unless its owner opts in
	// (the serve command installs a text or JSON handler via -logjson).
	Logger *slog.Logger
	// TraceSample in (0, 1] enables request-scoped wall-clock tracing:
	// that fraction of /v1/predict requests record their
	// admission/queue/batch/forward/respond stage spans into a Chrome
	// trace, exposed at /tracez and via Tracer(). 0 disables tracing.
	TraceSample float64
	// TraceSeed fixes the sampling sequence (0 selects seed 1); tests
	// use it to make fractional sampling deterministic.
	TraceSeed int64
	// EnablePprof mounts the stdlib net/http/pprof handlers under
	// /debug/pprof/ on the serve mux.
	EnablePprof bool
	// RuntimeMetricsInterval, when positive, runs a background sampler
	// feeding runtime.* gauges (heap, GC, goroutines) and arena.*
	// occupancy gauges into the registry on that interval.
	RuntimeMetricsInterval time.Duration
	// NoProfiler disables the continuous profiler (on by default: a
	// windowed in-process pprof CPU+heap sampler feeding /profilez).
	NoProfiler bool
	// ProfileWindow/ProfileEvery override the profiler's capture window
	// and duty-cycle period (defaults 1s / 15s).
	ProfileWindow time.Duration
	ProfileEvery  time.Duration
}

// Server is the HTTP inference front end: one dynamic batcher per
// registered model behind /v1/predict, plus /v1/models, /healthz,
// /metricsz, /tracez and (opt-in) /debug/pprof.
type Server struct {
	reg      *Registry
	opts     Options
	met      *trace.Metrics
	log      *slog.Logger
	tracer   *trace.WallTracer
	batchers map[string]*Batcher
	reqID    atomic.Uint64
	started  time.Time

	http     *http.Server
	listener net.Listener
	sampler  *trace.RuntimeSampler
	prof     *memobs.Profiler

	mu       sync.Mutex
	draining bool
}

// NewServer wraps a loaded registry. The server owns one batcher (and
// therefore one dispatcher goroutine) per model.
func NewServer(reg *Registry, opts Options) *Server {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 2 * time.Second
	}
	met := opts.Metrics
	if met == nil {
		met = trace.NewMetrics()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{reg: reg, opts: opts, met: met, log: logger, batchers: make(map[string]*Batcher)}
	if opts.TraceSample > 0 {
		seed := opts.TraceSeed
		if seed == 0 {
			seed = 1
		}
		s.tracer = trace.NewWallTracer(opts.TraceSample, seed)
	}
	for _, name := range reg.Names() {
		inst, _ := reg.Lookup(name)
		s.batchers[name] = NewBatcher(inst, BatcherOptions{
			QueueDepth: opts.QueueDepth,
			Metrics:    met,
			Tracer:     s.tracer,
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/profilez", s.handleProfilez)
	if opts.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.http = &http.Server{Handler: mux}
	return s
}

// arenaStats aggregates executor-arena occupancy across the registry's
// instances — the arena.* gauge source for the runtime sampler.
func (s *Server) arenaStats() tensor.ArenaStats {
	var agg tensor.ArenaStats
	for _, name := range s.reg.Names() {
		inst, _ := s.reg.Lookup(name)
		agg = agg.Add(inst.ArenaStats())
	}
	return agg
}

// Start listens on addr (e.g. "127.0.0.1:0" for a random port) and
// serves in a background goroutine. The bound address is returned.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.listener = ln
	s.started = time.Now()
	if iv := s.opts.RuntimeMetricsInterval; iv > 0 {
		s.sampler = trace.StartRuntimeSampler(s.met, iv, func(reg *trace.Metrics) {
			s.arenaStats().Record("arena", reg)
			for _, name := range s.reg.Names() {
				inst, _ := s.reg.Lookup(name)
				if inst.Mem != nil {
					inst.Mem.Timeline().Record(reg)
				}
			}
		})
	}
	if !s.opts.NoProfiler {
		s.prof = memobs.StartProfiler(memobs.ProfilerOptions{
			Window: s.opts.ProfileWindow, Every: s.opts.ProfileEvery, Metrics: s.met,
		})
	}
	go s.http.Serve(ln)
	s.log.Info("serve.start", "addr", ln.Addr().String(),
		"models", s.reg.Names(),
		"trace_sample", s.opts.TraceSample,
		"pprof", s.opts.EnablePprof,
		"revision", buildinfo.Get().Revision)
	return ln.Addr(), nil
}

// Shutdown drains gracefully: new requests are rejected with 503, every
// accepted request is answered, then the HTTP server stops.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.log.Info("serve.drain", "uptime_s", time.Since(s.started).Seconds(),
		"requests", s.met.Counter("serve.requests").Value())
	for _, b := range s.batchers {
		b.Shutdown()
	}
	s.sampler.Stop()
	s.prof.Stop()
	err := s.http.Shutdown(ctx)
	s.log.Info("serve.stop", "err", err)
	return err
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *trace.Metrics { return s.met }

// Tracer returns the request-scoped wall-clock tracer (nil when
// Options.TraceSample is 0).
func (s *Server) Tracer() *trace.WallTracer { return s.tracer }

// PredictRequest is the /v1/predict request body.
type PredictRequest struct {
	// Model selects a registry entry; empty means the default model.
	Model string `json:"model,omitempty"`
	// Image is the flattened C*H*W input in NCHW channel order.
	Image []float32 `json:"image"`
	// TimeoutMs optionally shortens the server's request timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// PredictResponse is the /v1/predict success body.
type PredictResponse struct {
	Model  string    `json:"model"`
	Argmax int       `json:"argmax"`
	Logits []float32 `json:"logits"`
	// BatchSize is how many requests shared this executor pass.
	BatchSize int   `json:"batch_size"`
	QueueUs   int64 `json:"queue_us"`
	LatencyUs int64 `json:"latency_us"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	start := time.Now()
	// Every request gets an ID (logs correlate on it); the tracer then
	// decides whether this one also records wall-clock stage spans. An
	// unsampled request carries the nil SpanContext, which no-ops.
	id := fmt.Sprintf("req-%06d", s.reqID.Add(1))
	sc := s.tracer.Request(id)
	status, batchSize, model := 0, 0, ""
	defer func() {
		s.log.Info("request", "id", id, "model", model, "status", status,
			"batch", batchSize, "latency_us", time.Since(start).Microseconds(),
			"sampled", sc != nil)
	}()
	fail := func(code int, msg string) {
		status = code
		writeJSON(w, code, errorResponse{msg})
		s.tracer.Finish(sc)
	}

	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	inst, err := s.reg.Lookup(req.Model)
	if err != nil {
		fail(http.StatusNotFound, err.Error())
		return
	}
	model = inst.Name
	if len(req.Image) != inst.ImageLen() {
		fail(http.StatusBadRequest, fmt.Sprintf(
			"image has %d values, model %s wants %d (%dx%dx%d)",
			len(req.Image), inst.Name, inst.ImageLen(), inst.C, inst.H, inst.W))
		return
	}
	timeout := s.opts.RequestTimeout
	if req.TimeoutMs > 0 {
		if t := time.Duration(req.TimeoutMs) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	deadline := start.Add(timeout)

	// "admit" spans decode, validation and queue admission; the batcher
	// records "queue"/"assemble"/"forward" on its dispatcher goroutine.
	submitReq := &Request{Image: req.Image, Deadline: deadline, Span: sc}
	respCh, err := s.batchers[inst.Name].Submit(submitReq)
	sc.Record("admit", start, time.Now())
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			fail(http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			fail(http.StatusServiceUnavailable, err.Error())
		default:
			fail(http.StatusInternalServerError, err.Error())
		}
		return
	}

	var resp Response
	select {
	case resp = <-respCh:
	case <-time.After(time.Until(deadline)):
		// The dispatcher will still answer the buffered channel; this
		// handler just stops waiting.
		s.met.Counter("serve.timeouts").Add(1)
		fail(http.StatusGatewayTimeout, "deadline exceeded")
		return
	case <-r.Context().Done():
		fail(http.StatusServiceUnavailable, "client gone")
		return
	}
	if resp.Err != nil {
		if errors.Is(resp.Err, ErrDeadline) {
			s.met.Counter("serve.timeouts").Add(1)
			fail(http.StatusGatewayTimeout, resp.Err.Error())
		} else {
			s.met.Counter("serve.errors").Add(1)
			fail(http.StatusInternalServerError, resp.Err.Error())
		}
		return
	}
	lat := time.Since(start)
	s.met.Histogram("serve.latency_seconds", trace.LatencyBuckets).Observe(lat.Seconds())
	argmax := 0
	for i, v := range resp.Logits {
		if v > resp.Logits[argmax] {
			argmax = i
		}
	}
	status, batchSize = http.StatusOK, resp.BatchSize
	respondStart := time.Now()
	writeJSON(w, http.StatusOK, PredictResponse{
		Model:     inst.Name,
		Argmax:    argmax,
		Logits:    resp.Logits,
		BatchSize: resp.BatchSize,
		QueueUs:   resp.QueueWait.Microseconds(),
		LatencyUs: lat.Microseconds(),
	})
	sc.Record("respond", respondStart, time.Now())
	s.tracer.Finish(sc)
}

// ModelInfo is one /v1/models entry.
type ModelInfo struct {
	Name     string `json:"name"`
	Input    [3]int `json:"input"` // C, H, W
	Classes  int    `json:"classes"`
	MaxBatch int    `json:"max_batch"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	infos := make([]ModelInfo, 0, len(s.reg.Names()))
	for _, name := range s.reg.Names() {
		inst, _ := s.reg.Lookup(name)
		infos = append(infos, ModelInfo{
			Name: name, Input: [3]int{inst.C, inst.H, inst.W},
			Classes: inst.Classes, MaxBatch: inst.MaxBatch,
		})
	}
	writeJSON(w, http.StatusOK, infos)
}

// healthResponse is the /healthz body: liveness plus the build
// provenance of the answering binary.
type healthResponse struct {
	Status string `json:"status"`
	buildinfo.Info
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := healthResponse{Status: "ok", Info: buildinfo.Get()}
	if !s.started.IsZero() {
		resp.UptimeSeconds = time.Since(s.started).Seconds()
	}
	if draining {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetricsz serves the registry through the shared
// content-negotiated handler (trace.MetricsHandler — also behind the
// trainer dashboard), refreshing the latency-quantile gauges at scrape
// time.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	trace.MetricsHandler(s.met, func(m *trace.Metrics) {
		lat := m.Histogram("serve.latency_seconds", trace.LatencyBuckets)
		m.Gauge("serve.latency_p50_seconds").Set(lat.Quantile(0.5))
		m.Gauge("serve.latency_p99_seconds").Set(lat.Quantile(0.99))
	})(w, r)
}

// handleProfilez serves the continuous profiler's latest window (per-op
// CPU/alloc attribution, flat function tables, pprof downloads) plus
// the measured memory timeline of every registered instance.
func (s *Server) handleProfilez(w http.ResponseWriter, r *http.Request) {
	if s.prof == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			"continuous profiling disabled (Options.NoProfiler)"})
		return
	}
	memobs.Handler(s.prof, func() []*memobs.MemTimeline {
		var out []*memobs.MemTimeline
		for _, name := range s.reg.Names() {
			inst, _ := s.reg.Lookup(name)
			if inst.Mem != nil {
				out = append(out, inst.Mem.Timeline())
			}
		}
		return out
	})(w, r)
}

// handleTracez dumps the request-scoped wall-clock trace accumulated so
// far as Chrome trace_event JSON — the live-serving counterpart of
// `splitcnn trace`'s simulated timelines.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{
			"request tracing disabled (start with a trace sample rate > 0)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.tracer.Trace().WriteJSON(w)
}
