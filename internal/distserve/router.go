package distserve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/rpc"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"splitcnn/internal/buildinfo"
	"splitcnn/internal/debugz"
	"splitcnn/internal/dist"
	"splitcnn/internal/graph"
	"splitcnn/internal/serve"
	"splitcnn/internal/snapshot"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// Router errors surfaced as HTTP statuses.
var (
	// ErrNoCapacity: no healthy worker has a free pod slot (429).
	ErrNoCapacity = errors.New("distserve: no worker capacity")
	// ErrDeadline: the request budget ran out across retries (504).
	ErrDeadline = errors.New("distserve: deadline exceeded")
)

// RouterOptions configures the routing front end.
type RouterOptions struct {
	// Spec must match the workers' spec (signature-checked).
	Spec serve.Spec
	// Workers lists shard-worker RPC addresses (host:port).
	Workers []string
	// MaxShards caps gang width per request (0 = len(Workers)).
	MaxShards int
	// RequestTimeout bounds queue+scatter+gather+tail (default 2s); a
	// request's timeout_ms may shorten it.
	RequestTimeout time.Duration
	// HealthInterval paces the health-check loop (default 1s).
	HealthInterval time.Duration
	// Retries is how many times a failed gang is re-dispatched on the
	// remaining healthy replicas (default 2).
	Retries int
	// Metrics receives serve.*/dist.* instruments (nil = private).
	Metrics *trace.Metrics
	// Logger receives request/lifecycle logs (nil discards).
	Logger *slog.Logger
	// SLO declares latency/error objectives in flag syntax
	// ("p99=50ms,err=0.1%"); when set, multi-window burn-rate gauges
	// (slo.*) appear on /metricsz. Empty = no SLO tracking.
	SLO string
	// Debug tunes the debug surface; the continuous profiler always
	// runs. Sampled requests record scatter/shard/gather/tail spans and
	// harvest worker-side spans into one stitched, skew-corrected
	// timeline with a row per process.
	Debug debugz.Options
}

// Fixed router parameters.
const (
	tailExecutors = 2 // graph-tail executors gathering shard results into logits
	failThreshold = 2 // consecutive health failures that eject a worker; one success re-admits it
	clockProbes   = 3 // Shard.Clock round trips per skew refresh; the min-RTT sample wins
)

// workerState is the router's view of one replica.
type workerState struct {
	addr     string
	healthy  bool
	fails    int
	maxPods  int
	inflight atomic.Int64
	lastErr  string
	ejected  time.Time
	// dispatched counts Eval RPCs this worker accepted past its
	// capacity gate (success or handled non-capacity error) — the
	// router-side mirror of the worker's dist.worker.requests counter,
	// compared by the /clusterz consistency rollup.
	dispatched atomic.Uint64
	// build is the worker's binary identity from its last health reply.
	build buildinfo.Info
	// skew/skewRTT: latest clock-skew estimate (worker − router) and
	// the min-RTT it rode in on; skewOK gates stitching on having one.
	skew    time.Duration
	skewRTT time.Duration
	skewOK  bool
}

// WorkerInfo is one /v1/workers entry.
type WorkerInfo struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	InFlight int    `json:"in_flight"`
	MaxPods  int    `json:"max_pods"`
	LastErr  string `json:"last_err,omitempty"`
	// Build is the worker's binary identity (version/commit), so a
	// mixed-version gang is visible at a glance.
	Build *buildinfo.Info `json:"build,omitempty"`
	// ClockSkewSeconds / ClockRTTSeconds: latest skew estimate.
	ClockSkewSeconds float64 `json:"clock_skew_seconds"`
	ClockRTTSeconds  float64 `json:"clock_rtt_seconds"`
	Dispatched       uint64  `json:"dispatched"`
}

// Router fronts a pool of shard workers: health-checked membership with
// ejection and re-admission, least-loaded gang selection under per-pod
// capacity limits, deadline-propagating scatter/gather of image and
// feature-map row bands, whole-gang retry on worker failure, and local
// evaluation of the model's non-shardable tail. It serves the same
// /v1/predict surface as the single-process server, so clients (and
// the bench load generator) cannot tell which one they talk to — except
// that answers are computed by a gang.
type Router struct {
	plan *Plan
	sig  string
	opts RouterOptions

	pool  *dist.ClientPool
	tails chan *tailExec

	met    *trace.Metrics
	log    *slog.Logger
	dbg    *debugz.Surface
	tracer *trace.WallTracer
	slo    *trace.SLOTracker

	mu      sync.Mutex
	workers []*workerState

	reqID atomic.Uint64

	http     *http.Server
	stop     chan struct{}
	draining atomic.Bool
}

// tailExec owns one executor for the graph remainder. All tail
// executors share one materialized graph and store — safe because every
// op is stateless in eval mode — but each has private value slots and
// arena.
type tailExec struct {
	ex    *graph.Executor
	feeds graph.Feeds
}

// NewRouter materializes the model, extracts the plan, builds the tail
// executor pool, and prepares (but does not start) the HTTP front end.
// Workers need not be reachable yet: the health loop admits them as
// they come up.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("distserve: router needs at least one worker address")
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 2 * time.Second
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.MaxShards <= 0 || opts.MaxShards > len(opts.Workers) {
		opts.MaxShards = len(opts.Workers)
	}
	spec := opts.Spec
	spec.MaxBatch = 1
	m, store, err := serve.Materialize(spec)
	if err != nil {
		return nil, err
	}
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	fp, err := snapshot.FingerprintFile(spec.Snapshot)
	if err != nil {
		return nil, err
	}
	met := opts.Metrics
	if met == nil {
		met = trace.NewMetrics()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	rt := &Router{
		plan: plan, sig: plan.Signature(fp), opts: opts,
		pool:  dist.NewClientPool(),
		tails: make(chan *tailExec, tailExecutors),
		met:   met, log: logger,
		stop: make(chan struct{}),
	}
	if opts.SLO != "" {
		slo, err := trace.ParseSLO(opts.SLO)
		if err != nil {
			return nil, err
		}
		rt.slo = trace.NewSLOTracker(slo)
	}
	for i := 0; i < tailExecutors; i++ {
		ex, err := graph.NewExecutor(m.Graph, store)
		if err != nil {
			return nil, err
		}
		ex.UseArena(tensor.NewArena())
		rt.tails <- &tailExec{ex: ex, feeds: graph.Feeds{}}
	}
	for _, addr := range opts.Workers {
		rt.workers = append(rt.workers, &workerState{addr: addr, maxPods: 1})
	}
	mux := http.NewServeMux()
	rt.dbg = debugz.Mount(mux, debugz.Config{
		Options: opts.Debug, Metrics: met, Profile: true,
		Health: rt.health, Quantiles: []string{"serve.latency"},
		Refresh: func(m *trace.Metrics) {
			rt.slo.Publish(m)
			if rt.tracer != nil {
				m.Gauge("trace.dropped_spans").Set(float64(rt.tracer.DroppedSpans()))
			}
		},
	})
	rt.tracer = rt.dbg.Tracer()
	mux.HandleFunc("/v1/predict", rt.handlePredict)
	mux.HandleFunc("/v1/models", rt.handleModels)
	mux.HandleFunc("/v1/workers", rt.handleWorkers)
	mux.HandleFunc("/clusterz", rt.handleClusterz)
	rt.http = &http.Server{Handler: mux}
	return rt, nil
}

// Plan returns the router's shard plan (tests).
func (rt *Router) Plan() *Plan { return rt.plan }

// Metrics returns the router's registry.
func (rt *Router) Metrics() *trace.Metrics { return rt.met }

// Tracer returns the request tracer (nil unless TraceSample>0).
func (rt *Router) Tracer() *trace.WallTracer { return rt.tracer }

// Start binds addr, probes every worker once (synchronously, so a
// ready fleet is dispatchable from the first request), starts the
// health loop, and serves HTTP. An address it cannot bind fails the
// start before any of that begins.
func (rt *Router) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	rt.checkAll()
	go rt.healthLoop()
	rt.dbg.Start()
	go rt.http.Serve(ln)
	rt.log.Info("dist.router.start", "addr", ln.Addr().String(),
		"workers", rt.opts.Workers, "max_shards", rt.opts.MaxShards,
		"stages", len(rt.plan.Stages), "revision", buildinfo.Get().Revision)
	return ln.Addr(), nil
}

// Shutdown drains: new requests get 503, the health loop stops, open
// connections close.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	close(rt.stop)
	rt.dbg.Stop()
	err := rt.http.Shutdown(ctx)
	rt.pool.Close()
	rt.log.Info("dist.router.stop", "requests", rt.met.Counter("dist.requests").Value())
	return err
}

// healthLoop probes every worker each interval, ejecting after
// failThreshold consecutive failures and re-admitting on success.
func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.checkAll()
		}
	}
}

func (rt *Router) checkAll() {
	var wg sync.WaitGroup
	for _, ws := range rt.workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			rt.checkOne(ws)
		}(ws)
	}
	wg.Wait()
	rt.met.Gauge("dist.workers_healthy").Set(float64(rt.healthyWorkers()))
}

func (rt *Router) healthyWorkers() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, ws := range rt.workers {
		if ws.healthy {
			n++
		}
	}
	return n
}

func (rt *Router) checkOne(ws *workerState) {
	var hr HealthReply
	err := rt.pool.Call(ws.addr, "Shard.Health", &HealthArgs{}, &hr, rt.opts.HealthInterval)
	if err == nil && hr.Model != rt.sig {
		err = fmt.Errorf("model signature mismatch (worker runs a different model or weights)")
	}
	var est dist.SkewEstimate
	estOK := false
	if err == nil {
		est, estOK = rt.probeClock(ws.addr)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err != nil {
		ws.fails++
		ws.lastErr = err.Error()
		if ws.healthy && ws.fails >= failThreshold {
			ws.healthy = false
			ws.ejected = time.Now()
			rt.met.Counter("dist.ejections").Add(1)
			rt.log.Warn("dist.router.eject", "worker", ws.addr, "err", err)
		}
		return
	}
	ws.fails = 0
	ws.maxPods = hr.MaxPods
	ws.lastErr = ""
	ws.build = hr.Build
	if estOK {
		ws.skew, ws.skewRTT, ws.skewOK = est.Offset, est.RTT, true
		rt.met.Gauge("dist.clock_skew_seconds." + ws.addr).Set(est.Offset.Seconds())
		rt.met.Gauge("dist.clock_rtt_seconds." + ws.addr).Set(est.RTT.Seconds())
	}
	if !ws.healthy {
		ws.healthy = true
		rt.met.Counter("dist.readmissions").Add(1)
		rt.log.Info("dist.router.readmit", "worker", ws.addr)
	}
}

// probeClock refreshes one worker's clock-skew estimate: clockProbes
// Shard.Clock round trips, min-RTT sample wins (dist.EstimateSkew).
func (rt *Router) probeClock(addr string) (dist.SkewEstimate, bool) {
	est, err := dist.EstimateSkew(clockProbes, func() (time.Time, error) {
		var cr ClockReply
		if err := rt.pool.Call(addr, "Shard.Clock", &ClockArgs{}, &cr, rt.opts.HealthInterval); err != nil {
			return time.Time{}, err
		}
		return time.Unix(0, cr.UnixNano), nil
	})
	return est, err == nil
}

// ejectNow immediately marks a worker unhealthy after a dispatch-path
// transport failure (connection refused, EOF mid-call): unlike a health
// probe miss, a dead TCP peer is definitive. The health loop re-admits
// it when it answers again.
func (rt *Router) ejectNow(ws *workerState, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ws.fails = failThreshold
	ws.lastErr = err.Error()
	if ws.healthy {
		ws.healthy = false
		ws.ejected = time.Now()
		rt.met.Counter("dist.ejections").Add(1)
		rt.log.Warn("dist.router.eject", "worker", ws.addr, "err", err)
	}
}

// pickGang selects up to MaxShards healthy workers with free pod
// capacity, least-loaded first (ties broken by address for
// determinism). It reserves one in-flight slot on each.
func (rt *Router) pickGang() ([]*workerState, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var avail []*workerState
	for _, ws := range rt.workers {
		if ws.healthy && ws.inflight.Load() < int64(ws.maxPods) {
			avail = append(avail, ws)
		}
	}
	if len(avail) == 0 {
		return nil, ErrNoCapacity
	}
	sort.Slice(avail, func(i, j int) bool {
		li, lj := avail[i].inflight.Load(), avail[j].inflight.Load()
		if li != lj {
			return li < lj
		}
		return avail[i].addr < avail[j].addr
	})
	gang := avail[:min(rt.opts.MaxShards, len(avail))]
	for _, ws := range gang {
		ws.inflight.Add(1)
	}
	return gang, nil
}

func (rt *Router) releaseGang(gang []*workerState) {
	for _, ws := range gang {
		ws.inflight.Add(-1)
	}
}

// Predict runs one image through the distributed path: scatter image
// row bands to a gang, gather final-stage bands, finish the tail
// locally. On any shard failure the whole gang is retried (fresh
// attempt ID) on the remaining healthy replicas until Retries or the
// deadline is exhausted.
func (rt *Router) Predict(image []float32, deadline time.Time, sc *trace.SpanContext) ([]float32, int, error) {
	logits, shards, _, err := rt.predict(image, deadline, sc)
	return logits, shards, err
}

// predict is Predict plus the harvested worker spans of the winning
// attempt (nil when unsampled or tracing is off).
func (rt *Router) predict(image []float32, deadline time.Time, sc *trace.SpanContext) ([]float32, int, []ProcessSpans, error) {
	want := bandLen(rt.plan.InC, rt.plan.InH, rt.plan.InW)
	if len(image) != want {
		return nil, 0, nil, fmt.Errorf("distserve: image has %d values, want %d", len(image), want)
	}
	full := tensor.New(1, rt.plan.InC, rt.plan.InH, rt.plan.InW)
	copy(full.Data(), image)
	base := fmt.Sprintf("req-%06d", rt.reqID.Add(1))

	var lastErr error
	for attempt := 0; attempt <= rt.opts.Retries; attempt++ {
		if time.Until(deadline) <= 0 {
			break
		}
		if attempt > 0 {
			rt.met.Counter("dist.retries").Add(1)
		}
		gang, err := rt.pickGang()
		if err != nil {
			if lastErr != nil {
				// Capacity vanished because we just ejected the fleet's
				// only replicas; surface the underlying failure.
				return nil, 0, nil, lastErr
			}
			return nil, 0, nil, err
		}
		logits, procs, err := rt.attempt(full, fmt.Sprintf("%s/a%d", base, attempt), attempt, gang, deadline, sc)
		rt.releaseGang(gang)
		if err == nil {
			return logits, len(gang), procs, nil
		}
		lastErr = err
		rt.log.Warn("dist.router.attempt_failed", "req", base, "attempt", attempt, "err", err)
	}
	if lastErr == nil {
		lastErr = ErrDeadline
	}
	if time.Until(deadline) <= 0 {
		lastErr = fmt.Errorf("%w (last error: %v)", ErrDeadline, lastErr)
	}
	return nil, 0, nil, lastErr
}

// attempt dispatches one gang-wide evaluation and finishes the tail.
func (rt *Router) attempt(full *tensor.Tensor, reqID string, attemptNo int, gang []*workerState, deadline time.Time, sc *trace.SpanContext) ([]float32, []ProcessSpans, error) {
	n := len(gang)
	owners := rt.plan.Owners(n)
	addrs := make([]string, n)
	for i, ws := range gang {
		addrs[i] = ws.addr
	}
	tc := TraceContext{Attempt: attemptNo}
	if sc != nil {
		tc = TraceContext{ID: sc.ID(), Sampled: true, Parent: scatterSpanName, Attempt: attemptNo}
	}
	scatterStart := time.Now()
	replies := make([]EvalReply, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range gang {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			imgR := rt.plan.ImageRange(owners, i)
			args := &EvalArgs{
				ReqID: reqID, Model: rt.sig,
				Shard: i, Gang: addrs,
				TimeoutMs: time.Until(deadline).Milliseconds(),
				RowLo:     imgR.Lo, RowHi: imgR.Hi,
				Trace: tc,
			}
			if !imgR.Empty() {
				args.Rows = SliceRows(full, 0, imgR).Data()
			}
			t0 := time.Now()
			errs[i] = rt.pool.Call(addrs[i], "Shard.Eval", args, &replies[i], time.Until(deadline))
			durs[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	sc.Record("scatter_gather", scatterStart, time.Now())
	// Inspect every shard's outcome before giving up: a dead gang member
	// typically makes its *neighbors* fail first (their halo fetches
	// error as handled rpc.ServerErrors), and only the member's own slot
	// carries the transport error that identifies who to eject. Returning
	// on the first error would let retries re-pick the corpse.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			// The worker accepted and completed the eval: mirror its
			// dist.worker.requests increment for the /clusterz
			// consistency rollup.
			gang[i].dispatched.Add(1)
			rt.met.Counter("dist.dispatches").Add(1)
			continue
		}
		var se rpc.ServerError
		if errors.As(err, &se) {
			// The worker handled the call and said no (capacity, model
			// mismatch, internal error): not a liveness signal. Only the
			// worker's own refusal leads with the prefix; a partner's
			// refusal relayed through a failed halo fetch does not.
			if !strings.HasPrefix(string(se), capacityPrefix) {
				// Non-capacity handled errors passed the worker's
				// capacity gate and were counted there too.
				gang[i].dispatched.Add(1)
				rt.met.Counter("dist.dispatches").Add(1)
				rt.met.Counter("dist.shard_errors").Add(1)
			}
		} else {
			rt.ejectNow(gang[i], err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("shard %d/%d on %s: %w", i, n, addrs[i], err)
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	rt.observeStraggler(durs)

	// Gather: stitch the final-stage bands into one feature map.
	gatherStart := time.Now()
	last := rt.plan.Last()
	fm := tensor.New(1, last.OutC, last.OutH, last.OutW)
	covered := 0
	for i := range replies {
		r := Range{replies[i].RowLo, replies[i].RowHi}
		if r != owners[len(rt.plan.Stages)-1][i] {
			return nil, nil, fmt.Errorf("distserve: shard %d returned band %v, plan assigns %v", i, r, owners[len(rt.plan.Stages)-1][i])
		}
		if r.Empty() {
			continue
		}
		if len(replies[i].Data) != bandLen(last.OutC, r.Len(), last.OutW) {
			return nil, nil, fmt.Errorf("distserve: shard %d band %v has %d floats", i, r, len(replies[i].Data))
		}
		band := tensor.New(1, last.OutC, r.Len(), last.OutW)
		copy(band.Data(), replies[i].Data)
		copyRows(fm, r.Lo, band, 0, r.Len())
		covered += r.Len()
	}
	if covered != last.OutH {
		return nil, nil, fmt.Errorf("distserve: gathered %d of %d rows of %s", covered, last.OutH, last.Name)
	}
	sc.Record("gather", gatherStart, time.Now())

	// Tail: resume the graph from the gathered feature map.
	tailStart := time.Now()
	var te *tailExec
	select {
	case te = <-rt.tails:
	case <-time.After(time.Until(deadline)):
		return nil, nil, ErrDeadline
	}
	outs, err := te.ex.ForwardFrom(te.feeds, map[string]*tensor.Tensor{rt.plan.Tail: fm})
	var logits []float32
	if err == nil {
		logits = append([]float32(nil), outs[0].Data()...)
	}
	rt.tails <- te
	sc.Record("tail", tailStart, time.Now())
	if err != nil {
		return nil, nil, err
	}
	var procs []ProcessSpans
	if tc.Sampled {
		procs = rt.harvestSpans(reqID, gang)
	}
	return logits, procs, nil
}

// observeStraggler feeds the per-shard forward histograms: every
// shard's Eval round trip, plus the attempt's straggler ratio
// (slowest / median shard time) — the per-request number that says
// whether the gang is balanced or one member drags the tail.
func (rt *Router) observeStraggler(durs []time.Duration) {
	for _, d := range durs {
		rt.met.Histogram("dist.shard_forward_seconds", trace.LatencyBuckets).Observe(d.Seconds())
	}
	if len(durs) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return
	}
	ratio := float64(sorted[len(sorted)-1]) / float64(median)
	rt.met.Histogram("dist.straggler_ratio", stragglerBuckets).Observe(ratio)
}

// stragglerBuckets resolve ratios near 1 finely (a balanced gang) and
// still distinguish 2× from 10× stragglers.
var stragglerBuckets = []float64{1, 1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10}

// harvestSpans collects the gang's banked stage spans for one sampled
// attempt (Shard.Spans, fan-out) and pairs each reply with the
// worker's latest clock-skew estimate. Workers without a skew estimate
// yet are skipped — an uncorrected row would be worse than a missing
// one. Harvest failures only cost timeline rows, never the request.
func (rt *Router) harvestSpans(reqID string, gang []*workerState) []ProcessSpans {
	replies := make([]SpansReply, len(gang))
	errs := make([]error, len(gang))
	var wg sync.WaitGroup
	for i, ws := range gang {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			errs[i] = rt.pool.Call(ws.addr, "Shard.Spans", &SpansArgs{ReqID: reqID}, &replies[i], time.Second)
		}(i, ws)
	}
	wg.Wait()
	var procs []ProcessSpans
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, ws := range gang {
		if errs[i] != nil || !replies[i].Found {
			rt.met.Counter("dist.span_harvest_misses").Add(1)
			continue
		}
		if !ws.skewOK {
			rt.met.Counter("dist.span_harvest_misses").Add(1)
			continue
		}
		procs = append(procs, ProcessSpans{
			Process:       fmt.Sprintf("shard%d %s", replies[i].Shard, ws.addr),
			Skew:          ws.skew,
			Uncertainty:   ws.skewRTT / 2,
			DefaultParent: scatterSpanName,
			Spans:         replies[i].Spans,
		})
	}
	return procs
}

// recordStitched verifies and exports one sampled request's stitched
// timeline: router spans on the "router" row, each worker's harvested
// spans (already skew-corrected by Stitch) on a "shard<i> <addr>" row.
// Verification failures increment dist.stitch_errors but still export —
// a broken timeline you can look at beats a silently missing one.
func (rt *Router) recordStitched(sc *trace.SpanContext, procs []ProcessSpans) {
	if sc == nil || rt.tracer == nil {
		return
	}
	var spans []StitchedSpan
	for _, s := range sc.Spans() {
		spans = append(spans, StitchedSpan{
			Process: "router", Name: s.Name, Parent: routerSpanParents[s.Name],
			Start: s.Start, End: s.End,
		})
	}
	spans = append(spans, Stitch(procs)...)
	if err := VerifyStitched(spans); err != nil {
		rt.met.Counter("dist.stitch_errors").Add(1)
		rt.log.Warn("dist.router.stitch_error", "req", sc.ID(), "err", err)
	}
	ExportStitched(rt.tracer, sc.ID(), spans)
}

// handlePredict mirrors the single-process server's /v1/predict
// contract (serve.PredictRequest/PredictResponse): the body goes
// through the same serve.DecodePredict, a wrong image length is 400,
// 429 when the fleet is saturated, 504 past the deadline.
// BatchSize reports the gang width that answered.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		debugz.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if rt.draining.Load() {
		debugz.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	start := time.Now()
	id := fmt.Sprintf("http-%06d", rt.reqID.Add(1))
	sc := rt.tracer.Request(id)
	rt.met.Counter("dist.requests").Add(1)
	status := 0
	defer func() {
		rt.slo.Observe(time.Since(start), status >= 500)
		rt.log.Info("request", "id", id, "status", status,
			"latency_us", time.Since(start).Microseconds())
	}()
	fail := func(code int, msg string) {
		status = code
		rt.met.Counter("dist.request_errors").Add(1)
		debugz.WriteError(w, code, msg)
		rt.tracer.Finish(sc)
	}
	p := rt.plan
	want := bandLen(p.InC, p.InH, p.InW)
	req, code, err := serve.DecodePredict(w, r, want)
	if err != nil {
		fail(code, err.Error())
		return
	}
	// The router serves one model: an empty name selects it, any other
	// name is answered as serve answers a model it has not loaded.
	if req.Model != "" && req.Model != rt.opts.Spec.Name {
		fail(http.StatusNotFound, fmt.Sprintf("unknown model %q (have %s)", req.Model, rt.opts.Spec.Name))
		return
	}
	if len(req.Image) != want {
		fail(http.StatusBadRequest, fmt.Sprintf(
			"image has %d values, model %s wants %d (%dx%dx%d)",
			len(req.Image), rt.opts.Spec.Name, want, p.InC, p.InH, p.InW))
		return
	}
	timeout := rt.opts.RequestTimeout
	if req.TimeoutMs > 0 {
		if t := time.Duration(req.TimeoutMs) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	deadline := start.Add(timeout)
	sc.Record("admit", start, time.Now())
	logits, shards, procs, err := rt.predict(req.Image, deadline, sc)
	if err != nil {
		switch {
		case errors.Is(err, ErrNoCapacity):
			fail(http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDeadline), errors.Is(err, dist.ErrTimeout):
			rt.met.Counter("dist.timeouts").Add(1)
			fail(http.StatusGatewayTimeout, err.Error())
		default:
			fail(http.StatusInternalServerError, err.Error())
		}
		return
	}
	lat := time.Since(start)
	rt.met.Histogram("serve.latency_seconds", trace.LatencyBuckets).Observe(lat.Seconds())
	argmax := 0
	for i, v := range logits {
		if v > logits[argmax] {
			argmax = i
		}
	}
	status = http.StatusOK
	respondStart := time.Now()
	debugz.WriteJSON(w, http.StatusOK, serve.PredictResponse{
		Model:     rt.opts.Spec.Name,
		Argmax:    argmax,
		Logits:    logits,
		BatchSize: shards,
		QueueUs:   0,
		LatencyUs: lat.Microseconds(),
	})
	sc.Record("respond", respondStart, time.Now())
	// The request root closes the span tree; recordStitched (not
	// Finish) exports sampled requests so worker rows land on the same
	// timeline.
	sc.Record("request", start, time.Now())
	rt.recordStitched(sc, procs)
}

func (rt *Router) handleModels(w http.ResponseWriter, _ *http.Request) {
	debugz.WriteJSON(w, http.StatusOK, []serve.ModelInfo{{
		Name:     rt.opts.Spec.Name,
		Input:    [3]int{rt.plan.InC, rt.plan.InH, rt.plan.InW},
		Classes:  rt.plan.Classes,
		MaxBatch: 1,
	}})
}

func (rt *Router) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	infos := make([]WorkerInfo, 0, len(rt.workers))
	for _, ws := range rt.workers {
		info := WorkerInfo{
			Addr: ws.addr, Healthy: ws.healthy,
			InFlight: int(ws.inflight.Load()), MaxPods: ws.maxPods,
			LastErr:    ws.lastErr,
			Dispatched: ws.dispatched.Load(),
		}
		if ws.build != (buildinfo.Info{}) {
			b := ws.build
			info.Build = &b
		}
		if ws.skewOK {
			info.ClockSkewSeconds = ws.skew.Seconds()
			info.ClockRTTSeconds = ws.skewRTT.Seconds()
		}
		infos = append(infos, info)
	}
	rt.mu.Unlock()
	debugz.WriteJSON(w, http.StatusOK, infos)
}

// health is the router's /healthz verdict: the worker census, and 503
// while draining or when no worker is healthy.
func (rt *Router) health(h debugz.Health) (int, any) {
	healthy := rt.healthyWorkers()
	code := http.StatusOK
	switch {
	case rt.draining.Load():
		h.Status, code = "draining", http.StatusServiceUnavailable
	case healthy == 0:
		h.Status, code = "no healthy workers", http.StatusServiceUnavailable
	}
	return code, struct {
		debugz.Health
		Workers int `json:"workers"`
		Healthy int `json:"healthy_workers"`
		Stages  int `json:"shard_stages"`
	}{h, len(rt.workers), healthy, len(rt.plan.Stages)}
}
