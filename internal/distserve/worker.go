package distserve

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"

	"splitcnn/internal/buildinfo"
	"splitcnn/internal/dist"
	"splitcnn/internal/memobs"
	"splitcnn/internal/serve"
	"splitcnn/internal/snapshot"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// ErrCapacity is returned (over the wire, by message prefix) when a
// worker is already running MaxPods concurrent shard evaluations.
var ErrCapacity = errors.New("distserve: worker at capacity")

// capacityPrefix survives the rpc.ServerError round trip, so routers
// can distinguish "busy, pick someone else" from "broken, eject".
const capacityPrefix = "capacity: "

// WorkerConfig configures one shard worker.
type WorkerConfig struct {
	// Spec selects the model; it must match the router's spec exactly
	// (the Signature handshake enforces it). MaxBatch is forced to 1 —
	// the distributed path shards space, not batches.
	Spec serve.Spec
	// MaxPods caps concurrent shard evaluations (default 4) — the
	// per-pod capacity limit the router's dispatch respects.
	MaxPods int
	// Metrics receives dist.worker.* instruments (nil = private).
	Metrics *trace.Metrics
	// Logger receives lifecycle/request logs (nil discards).
	Logger *slog.Logger
	// TraceSample in (0,1] records per-stage wall spans for that
	// fraction of shard evaluations (exposed via Tracer).
	TraceSample float64
	// StageDelay is a testing aid: every stage evaluation sleeps this
	// long, making capacity and deadline windows deterministic.
	StageDelay time.Duration
	// RuntimeMetricsInterval tunes the runtime.* gauge sampler feeding
	// per-worker heap/GC series into the registry the router federates
	// on /clusterz. Zero selects the 10s default; negative disables.
	RuntimeMetricsInterval time.Duration
	// DebugAddr, when set (e.g. "127.0.0.1:0"), serves an HTTP debug
	// surface — /healthz, /metricsz, /profilez — next to the RPC
	// listener, and starts the continuous profiler behind /profilez.
	DebugAddr string
	// ProfileWindow/ProfileEvery override the profiler's capture window
	// and duty-cycle period (defaults 1s / 15s; used with DebugAddr).
	ProfileWindow time.Duration
	ProfileEvery  time.Duration
}

// Worker is one shard-evaluation process: it materializes the model,
// extracts the shard plan, and serves Shard.{Eval,Halo,Health} over
// net/rpc. Halo rows flow through a dist.Exchange so the Eval goroutine
// and concurrent neighbor Halo handlers rendezvous without shared state
// beyond the exchange.
type Worker struct {
	plan *Plan
	eval *ShardEval
	sig  string

	pool *dist.ClientPool
	exch *dist.Exchange
	bank *spanBank

	maxPods  int
	inflight atomic.Int64
	requests atomic.Uint64
	haloReqs atomic.Uint64
	haloBts  atomic.Uint64

	met *trace.Metrics
	// Exchange occupancy gauges, kept current at every change rather
	// than sampled: gaugeMu orders each read-and-set, so the last
	// change always wins. resident counts the bytes of halo rows the
	// exchange holds for readers that have not fetched them yet.
	gaugeMu                          sync.Mutex
	resident                         int64
	exchReqs, exchBytes, exchBytesHW *trace.Gauge

	log     *slog.Logger
	tracer  *trace.WallTracer
	delay   time.Duration
	started time.Time

	ln   net.Listener
	srv  *rpc.Server
	stop chan struct{}

	sampler *trace.RuntimeSampler
	prof    *memobs.Profiler
	dbgLn   net.Listener
	dbgSrv  *http.Server

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// haloRows is the value type published on the exchange per stage: the
// rows of the stage's output that other shards fetch, and only those.
type haloRows struct {
	rows Range
	t    *tensor.Tensor
}

// shardService is the exported RPC receiver ("Shard").
type shardService struct{ w *Worker }

// StartWorker materializes cfg.Spec, builds the shard plan, and serves
// the Shard RPC service on addr (use "127.0.0.1:0" for a random port).
func StartWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	spec := cfg.Spec
	spec.MaxBatch = 1
	m, store, err := serve.Materialize(spec)
	if err != nil {
		return nil, err
	}
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	se, err := NewShardEval(plan, store)
	if err != nil {
		return nil, err
	}
	fp, err := snapshot.FingerprintFile(spec.Snapshot)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	met := cfg.Metrics
	if met == nil {
		met = trace.NewMetrics()
	}
	maxPods := cfg.MaxPods
	if maxPods <= 0 {
		maxPods = 4
	}
	w := &Worker{
		plan: plan, eval: se, sig: plan.Signature(fp),
		pool: dist.NewClientPool(), exch: dist.NewExchange(),
		bank:    newSpanBank(0),
		maxPods: maxPods, met: met, log: logger,
		delay: cfg.StageDelay, started: time.Now(),
		stop: make(chan struct{}), conns: make(map[net.Conn]struct{}),
		exchReqs:    met.Gauge("dist.worker.exchange_requests"),
		exchBytes:   met.Gauge("dist.worker.exchange_resident_bytes"),
		exchBytesHW: met.Gauge("dist.worker.exchange_resident_bytes_high_water"),
	}
	if cfg.TraceSample > 0 {
		w.tracer = trace.NewWallTracer(cfg.TraceSample, 1)
	}
	w.srv = rpc.NewServer()
	if err := w.srv.RegisterName("Shard", &shardService{w}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w.ln = ln
	// Per-worker runtime.* gauges: Shard.Metrics ships the registry
	// snapshot to the router, so the sampler's heap/GC series federate
	// on /clusterz without any extra wiring.
	if iv := cfg.RuntimeMetricsInterval; iv >= 0 {
		if iv == 0 {
			iv = 10 * time.Second
		}
		w.sampler = trace.StartRuntimeSampler(met, iv)
	}
	if cfg.DebugAddr != "" {
		dln, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("distserve: worker debug listener: %w", err)
		}
		w.dbgLn = dln
		w.prof = memobs.StartProfiler(memobs.ProfilerOptions{
			Window: cfg.ProfileWindow, Every: cfg.ProfileEvery, Metrics: met,
		})
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(hw http.ResponseWriter, _ *http.Request) {
			hw.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(hw, `{"status":"ok","addr":%q}`, w.ln.Addr().String())
		})
		mux.HandleFunc("/metricsz", trace.MetricsHandler(met, nil))
		mux.HandleFunc("/profilez", memobs.Handler(w.prof, nil))
		w.dbgSrv = &http.Server{Handler: mux}
		go w.dbgSrv.Serve(dln) //nolint:errcheck
	}
	go w.acceptLoop()
	go w.janitor()
	w.log.Info("dist.worker.start", "addr", ln.Addr().String(),
		"stages", len(plan.Stages), "max_pods", maxPods)
	return w, nil
}

// DebugAddr returns the bound debug-HTTP address ("" when disabled).
func (w *Worker) DebugAddr() string {
	if w.dbgLn == nil {
		return ""
	}
	return w.dbgLn.Addr().String()
}

// Addr returns the bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Plan returns the worker's shard plan (tests).
func (w *Worker) Plan() *Plan { return w.plan }

// Signature returns the worker's model signature.
func (w *Worker) Signature() string { return w.sig }

// Metrics returns the worker's metrics registry.
func (w *Worker) Metrics() *trace.Metrics { return w.met }

// Tracer returns the per-stage wall tracer (nil unless TraceSample>0).
func (w *Worker) Tracer() *trace.WallTracer { return w.tracer }

// Close simulates an abrupt worker death for the failure tests and
// implements graceful stop: the listener and every open connection are
// closed, pending exchange waiters fail fast.
func (w *Worker) Close() error {
	select {
	case <-w.stop:
		return nil
	default:
	}
	close(w.stop)
	w.sampler.Stop()
	w.prof.Stop()
	if w.dbgLn != nil {
		w.dbgLn.Close()
	}
	err := w.ln.Close()
	w.mu.Lock()
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	w.pool.Close()
	w.exch.Expire(time.Now().Add(24 * time.Hour)) // everything
	w.exchChanged()
	w.log.Info("dist.worker.stop", "requests", w.requests.Load())
	return err
}

func (w *Worker) acceptLoop() {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go func() {
			w.srv.ServeConn(conn)
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
			conn.Close()
		}()
	}
}

// exchChanged republishes dist.worker.exchange_requests; called after
// every exchange operation that can add or remove a request.
func (w *Worker) exchChanged() {
	w.gaugeMu.Lock()
	w.exchReqs.Set(float64(w.exch.Len()))
	w.gaugeMu.Unlock()
}

// residentAdd accounts halo bytes entering (publish) or leaving (drop)
// the exchange.
func (w *Worker) residentAdd(delta int64) {
	w.gaugeMu.Lock()
	w.resident += delta
	w.exchBytes.Set(float64(w.resident))
	w.exchBytesHW.SetMax(float64(w.resident))
	w.gaugeMu.Unlock()
}

// failExchange tombstones an attempt on this worker's exchange: its
// published rows are dropped, and gang partners parked on — or racing
// toward — stages it will never publish fail at once instead of riding
// out their halo timeouts.
func (w *Worker) failExchange(reqID string, err error, deadline time.Time) {
	w.exch.Fail(reqID, err, minTime(deadline, time.Now().Add(5*time.Second)))
	w.exchChanged()
}

// janitor sweeps expired exchange requests — the backstop that bounds
// memory when a gang partner dies and the rows published for it go
// unconsumed.
func (w *Worker) janitor() {
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			if n := w.exch.Expire(now); n > 0 {
				w.met.Counter("dist.worker.expired_requests").Add(int64(n))
			}
			if n := w.bank.sweep(now); n > 0 {
				w.met.Counter("dist.worker.span_bank_expired").Add(int64(n))
			}
			w.exchChanged()
			w.met.Gauge("dist.worker.span_bank_requests").Set(float64(w.bank.len()))
			if w.tracer != nil {
				w.met.Gauge("trace.dropped_spans").Set(float64(w.tracer.DroppedSpans()))
			}
		}
	}
}

// Eval implements Shard.Eval.
func (s *shardService) Eval(args *EvalArgs, reply *EvalReply) error {
	return s.w.evalShard(args, reply)
}

// Halo implements Shard.Halo.
func (s *shardService) Halo(args *HaloArgs, reply *HaloReply) error {
	return s.w.halo(args, reply)
}

// Health implements Shard.Health.
func (s *shardService) Health(_ *HealthArgs, reply *HealthReply) error {
	w := s.w
	*reply = HealthReply{
		Model:        w.sig,
		InFlight:     int(w.inflight.Load()),
		MaxPods:      w.maxPods,
		Requests:     w.requests.Load(),
		HaloRequests: w.haloReqs.Load(),
		HaloBytes:    w.haloBts.Load(),
		UptimeSec:    time.Since(w.started).Seconds(),
		Build:        buildinfo.Get(),
	}
	return nil
}

// Clock implements Shard.Clock: a wall-clock read for the router's
// skew estimator. The timestamp is taken immediately, so the only
// unmodeled delay is the RPC framing itself (bounded by the probe RTT).
func (s *shardService) Clock(_ *ClockArgs, reply *ClockReply) error {
	reply.UnixNano = time.Now().UnixNano()
	return nil
}

// Spans implements Shard.Spans: consume the banked stage spans of one
// sampled (request, attempt).
func (s *shardService) Spans(args *SpansArgs, reply *SpansReply) error {
	shard, spans, ok := s.w.bank.take(args.ReqID)
	*reply = SpansReply{Found: ok, Shard: shard, Spans: spans}
	return nil
}

// Metrics implements Shard.Metrics: one tear-free snapshot of the
// worker's registry for router-side federation.
func (s *shardService) Metrics(_ *MetricsArgs, reply *MetricsReply) error {
	reply.Snap = s.w.met.Snapshot()
	return nil
}

func (w *Worker) evalShard(args *EvalArgs, reply *EvalReply) error {
	deadline := time.Now().Add(time.Duration(args.TimeoutMs) * time.Millisecond)
	// A rejected attempt must still fail on the exchange: a partner that
	// was admitted may already be parked in Shard.Halo here, and without
	// a tombstone it — and the router gathering the gang — would wait
	// out the whole request deadline instead of retrying.
	reject := func(err error) error {
		w.failExchange(args.ReqID, err, deadline)
		return err
	}
	if n := w.inflight.Add(1); n > int64(w.maxPods) {
		w.inflight.Add(-1)
		w.met.Counter("dist.worker.capacity_rejects").Add(1)
		return reject(fmt.Errorf("%s%w (%d in flight, max %d)", capacityPrefix, ErrCapacity, n-1, w.maxPods))
	}
	defer w.inflight.Add(-1)
	w.requests.Add(1)
	w.met.Counter("dist.worker.requests").Add(1)

	if args.Model != w.sig {
		return reject(fmt.Errorf("distserve: model signature mismatch (worker %q)", w.sig))
	}
	if args.Shard < 0 || args.Shard >= len(args.Gang) {
		return reject(fmt.Errorf("distserve: shard %d of gang %d", args.Shard, len(args.Gang)))
	}
	owners := w.plan.Owners(len(args.Gang))
	halo := w.plan.Halo(len(args.Gang))
	imgR := w.plan.ImageRange(owners, args.Shard)
	if args.RowLo != imgR.Lo || args.RowHi != imgR.Hi {
		return reject(fmt.Errorf("distserve: shard %d sent image rows [%d,%d), plan wants %v",
			args.Shard, args.RowLo, args.RowHi, imgR))
	}
	var image *tensor.Tensor
	if !imgR.Empty() {
		if len(args.Rows) != bandLen(w.plan.InC, imgR.Len(), w.plan.InW) {
			return reject(fmt.Errorf("distserve: image band has %d floats, want %d", len(args.Rows), bandLen(w.plan.InC, imgR.Len(), w.plan.InW)))
		}
		image = tensor.New(1, w.plan.InC, imgR.Len(), w.plan.InW)
		copy(image.Data(), args.Rows)
	}

	// The request deadline is only the backstop. Returning closes the
	// entry: rows a neighbor has yet to fetch stay exactly until that
	// fetch, and the entry goes with the last of them.
	w.exch.Open(args.ReqID, deadline)
	w.exchChanged()
	defer func() {
		w.exch.Close(args.ReqID)
		w.exchChanged()
	}()

	sc := w.tracer.Request(fmt.Sprintf("%s/s%d", args.ReqID, args.Shard))
	// Harvest expiry: spans must outlive the request deadline long
	// enough for the router to collect them right after gather.
	bankExpiry := deadline.Add(5 * time.Second)
	start := time.Now()
	fetch := func(stage, owner int, rows Range) (*tensor.Tensor, error) {
		remaining := time.Until(deadline)
		var hr HaloReply
		h0 := time.Now()
		err := w.pool.Call(args.Gang[owner], "Shard.Halo", &HaloArgs{
			ReqID: args.ReqID, Stage: stage, Lo: rows.Lo, Hi: rows.Hi,
			TimeoutMs: remaining.Milliseconds(), Sampled: args.Trace.Sampled,
		}, &hr, remaining)
		h1 := time.Now()
		w.met.Histogram("dist.worker.halo_wait_seconds", trace.LatencyBuckets).Observe(h1.Sub(h0).Seconds())
		if args.Trace.Sampled {
			w.bank.add(args.ReqID, bankExpiry, WireSpan{
				Name: fmt.Sprintf("halo_wait:s%d", stage), Parent: "shard_eval",
				StartUnixNano: h0.UnixNano(), EndUnixNano: h1.UnixNano(),
			})
		}
		if err != nil {
			return nil, err
		}
		c, wd := w.plan.Stages[stage].OutC, w.plan.Stages[stage].OutW
		if len(hr.Data) != bandLen(c, rows.Len(), wd) {
			return nil, fmt.Errorf("distserve: halo reply has %d floats, want %d", len(hr.Data), bandLen(c, rows.Len(), wd))
		}
		t := tensor.New(1, c, rows.Len(), wd)
		copy(t.Data(), hr.Data)
		return t, nil
	}
	publish := func(stage int, rows Range, t *tensor.Tensor) {
		bytes := int64(len(t.Data())) * 4
		w.residentAdd(bytes)
		w.exch.PublishCounted(args.ReqID, stage, &haloRows{rows: rows, t: t},
			halo.Bands[stage][args.Shard].Readers, func() { w.residentAdd(-bytes) })
	}
	obs := func(stage int, name string, s0, s1 time.Time) {
		if w.delay > 0 {
			time.Sleep(w.delay)
		}
		sc.Record("stage:"+name, s0, s1)
		if args.Trace.Sampled {
			w.bank.add(args.ReqID, bankExpiry, WireSpan{
				Name: "stage:" + name, Parent: "shard_eval",
				StartUnixNano: s0.UnixNano(), EndUnixNano: s1.UnixNano(),
			})
		}
		w.met.Histogram("dist.worker.stage_seconds", trace.LatencyBuckets).Observe(s1.Sub(s0).Seconds())
	}
	out, band, err := w.eval.RunShard(image, args.Shard, owners, fetch, publish, obs)
	if err != nil {
		// A failed attempt is never harvested; don't hold its spans.
		w.bank.drop(args.ReqID)
		w.failExchange(args.ReqID, err, deadline)
		w.met.Counter("dist.worker.errors").Add(1)
		w.log.Warn("dist.worker.eval_error", "req", args.ReqID, "shard", args.Shard, "err", err)
		return err
	}
	reply.RowLo, reply.RowHi = band.Lo, band.Hi
	reply.Stages = len(w.plan.Stages)
	if out != nil {
		reply.Data = append([]float32(nil), out.Data()...)
	}
	end := time.Now()
	sc.Record("shard_eval", start, end)
	w.tracer.Finish(sc)
	if args.Trace.Sampled {
		// The root worker span parents under the router-side span named
		// in the trace context; marking the entry done makes it
		// harvestable. Spans banked by Halo handlers serving this same
		// attempt on this worker ride along in the same entry.
		w.bank.add(args.ReqID, bankExpiry, WireSpan{
			Name: "shard_eval", Parent: args.Trace.Parent,
			StartUnixNano: start.UnixNano(), EndUnixNano: end.UnixNano(),
		})
		w.bank.finish(args.ReqID, args.Shard)
	}
	w.met.Histogram("dist.worker.eval_seconds", trace.LatencyBuckets).Observe(time.Since(start).Seconds())
	// Per-request memory attribution: the bytes this request actually
	// buffered on the worker — input band in, output band back. Halo
	// traffic is accounted separately (dist.worker.halo_* counters).
	w.met.Histogram("dist.worker.request_mem_bytes", trace.ByteBuckets).
		Observe(float64(int64(len(args.Rows)+len(reply.Data)) * 4))
	return nil
}

func (w *Worker) halo(args *HaloArgs, reply *HaloReply) error {
	w.haloReqs.Add(1)
	w.met.Counter("dist.worker.halo_requests").Add(1)
	timeout := time.Duration(args.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		return fmt.Errorf("distserve: halo request with no time budget")
	}
	h0 := time.Now()
	v, err := w.exch.Wait(args.ReqID, args.Stage, timeout)
	w.exchChanged()
	h1 := time.Now()
	w.met.Histogram("dist.worker.halo_serve_seconds", trace.LatencyBuckets).Observe(h1.Sub(h0).Seconds())
	if args.Sampled && err == nil {
		// A halo serve can begin before this worker's own Eval arrives,
		// so it can't nest under shard_eval; an empty parent parents it
		// under the router's cross-process span at stitch time.
		w.bank.add(args.ReqID, h1.Add(time.Duration(args.TimeoutMs)*time.Millisecond+5*time.Second), WireSpan{
			Name: fmt.Sprintf("halo_serve:s%d", args.Stage), Parent: "",
			StartUnixNano: h0.UnixNano(), EndUnixNano: h1.UnixNano(),
		})
	}
	if err != nil {
		return err
	}
	hr := v.(*haloRows)
	want := Range{args.Lo, args.Hi}
	if want.Lo < hr.rows.Lo || want.Hi > hr.rows.Hi {
		return fmt.Errorf("distserve: halo wants rows %v of stage %d, shard owns %v", want, args.Stage, hr.rows)
	}
	slice := SliceRows(hr.t, hr.rows.Lo, want)
	reply.Data = slice.Data()
	w.haloBts.Add(uint64(len(reply.Data) * 4))
	return nil
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
