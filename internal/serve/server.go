package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"splitcnn/internal/buildinfo"
	"splitcnn/internal/debugz"
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
	// Debug tunes the debug surface. Sampled /v1/predict requests
	// record their admission/queue/batch/forward/respond stage spans
	// (see Tracer). Every /metricsz scrape also publishes the arena.*
	// occupancy gauges and the mem.* gauges of the instances' memory
	// timelines, each summed over the instances.
	Debug debugz.Options
	// EnablePprof mounts the stdlib net/http/pprof handlers under
	// /debug/pprof/ on the serve mux.
	EnablePprof bool
}

// Server is the HTTP inference front end: one dynamic batcher per
// registered model behind /v1/predict, plus /v1/models and the debug
// surface (debugz).
type Server struct {
	reg      *Registry
	opts     Options
	met      *trace.Metrics
	log      *slog.Logger
	dbg      *debugz.Surface
	tracer   *trace.WallTracer
	batchers map[string]*Batcher
	// imageLen is the largest registered model's image length: it
	// bounds every /v1/predict body (MaxPredictBody).
	imageLen int
	reqID    atomic.Uint64

	http *http.Server

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
	mux := http.NewServeMux()
	s.dbg = debugz.Mount(mux, debugz.Config{
		Options: opts.Debug, Metrics: met,
		Pprof:     opts.EnablePprof,
		Health:    s.health,
		Quantiles: []string{"serve.latency"},
		Refresh:   s.refresh,
		Timelines: s.timelines,
	})
	s.tracer = s.dbg.Tracer()
	for _, name := range reg.Names() {
		inst, _ := reg.Lookup(name)
		s.imageLen = max(s.imageLen, inst.ImageLen())
		s.batchers[name] = NewBatcher(inst, BatcherOptions{
			QueueDepth: opts.QueueDepth,
			Metrics:    met,
			Tracer:     s.tracer,
		})
	}
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/models", s.handleModels)
	s.http = &http.Server{Handler: mux}
	return s
}

// timelines lists the memory timelines of the registered instances.
func (s *Server) timelines() []*memobs.MemTimeline {
	var out []*memobs.MemTimeline
	for _, name := range s.reg.Names() {
		inst, _ := s.reg.Lookup(name)
		out = append(out, inst.Timeline())
	}
	return out
}

// refresh publishes, at scrape time, the arena.* occupancy and the
// mem.* memory-timeline gauges, each summed over the registry's
// instances.
func (s *Server) refresh(m *trace.Metrics) {
	var arena tensor.ArenaStats
	var high, slab, scratch int64
	for _, name := range s.reg.Names() {
		inst, _ := s.reg.Lookup(name)
		arena = arena.Add(inst.ArenaStats())
		tl := inst.Timeline()
		high += tl.MeasuredHighWater
		slab += tl.PlannedSlabBytes
		scratch += tl.ScratchHighWater
	}
	arena.Record("arena", m)
	m.Gauge("mem.measured_high_water_bytes").Set(float64(high))
	m.Gauge("mem.planned_slab_bytes").Set(float64(slab))
	m.Gauge("mem.scratch_high_water_bytes").Set(float64(scratch))
}

// Start listens on addr (e.g. "127.0.0.1:0" for a random port) and
// serves in a background goroutine. The bound address is returned.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.http.Serve(ln)
	s.log.Info("serve.start", "addr", ln.Addr().String(),
		"models", s.reg.Names(),
		"trace_sample", s.opts.Debug.TraceSample,
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
	s.log.Info("serve.drain", "uptime_s", s.dbg.Uptime().Seconds(),
		"requests", s.met.Counter("serve.requests").Value())
	for _, b := range s.batchers {
		b.Shutdown()
	}
	err := s.http.Shutdown(ctx)
	s.log.Info("serve.stop", "err", err)
	return err
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *trace.Metrics { return s.met }

// Tracer returns the request-scoped wall-clock tracer (nil when
// Options.Debug.TraceSample is 0).
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

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		debugz.WriteError(w, http.StatusMethodNotAllowed, "POST only")
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
		debugz.WriteError(w, code, msg)
		s.tracer.Finish(sc)
	}

	req, code, err := DecodePredict(w, r, s.imageLen)
	if err != nil {
		fail(code, err.Error())
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

	// "admit" spans reading and decoding the body, validation and queue
	// admission; the batcher records "queue"/"assemble"/"forward" on its
	// dispatcher goroutine.
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
	debugz.WriteJSON(w, http.StatusOK, PredictResponse{
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
	debugz.WriteJSON(w, http.StatusOK, infos)
}

// health is the server's /healthz verdict: 503 "draining" once
// Shutdown has begun.
func (s *Server) health(h debugz.Health) (int, any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		h.Status = "draining"
		return http.StatusServiceUnavailable, h
	}
	return http.StatusOK, h
}
