package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"splitcnn/internal/dist"
	"splitcnn/internal/distserve"
	"splitcnn/internal/graph"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
)

// dist_gang2: `splitcnn router -spawn 2` — two shard workers and a router
// in this process, talking over real loopback TCP (net/rpc + HTTP). Every
// request is answered by a gang of two, each worker computing half the
// rows of every shardable stage and exchanging halo rows with the other.

const gang = 2

type distSession struct {
	in      inputs
	spec    serve.Spec
	traffic *predictInputs

	workers []*distserve.Worker
	rt      *distserve.Router
	clients []*predictClient
}

func openDist(in inputs) (session, error) {
	spec := serveSpec()
	traffic, err := newPredictInputs(in.seed, spec)
	if err != nil {
		return nil, err
	}
	return &distSession{in: in, spec: spec, traffic: traffic}, nil
}

// setup spawns the fleet, starts the router (Start probes every worker
// once, so the fleet is dispatchable when it returns) and answers the
// warm-up requests.
func (s *distSession) setup() error {
	var addrs []string
	for i := 0; i < gang; i++ {
		w, err := distserve.StartWorker("127.0.0.1:0", distserve.WorkerConfig{Spec: s.spec})
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		s.workers = append(s.workers, w)
		addrs = append(addrs, w.Addr())
	}
	rt, err := distserve.NewRouter(distserve.RouterOptions{Spec: s.spec, Workers: addrs})
	if err != nil {
		return err
	}
	s.rt = rt
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.clients = newPredictClients("http://"+addr.String(), clients)
	return warmup(s.load())
}

func (s *distSession) teardown() {
	closeClients(s.clients)
	if s.rt != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.rt.Shutdown(ctx)
		cancel()
	}
	for _, w := range s.workers {
		w.Close()
	}
	s.workers, s.rt, s.clients = nil, nil, nil
}

func (s *distSession) load() *httpLoad {
	return &httpLoad{in: s.traffic, clients: s.clients, wantShards: gang}
}

func (s *distSession) measure(d time.Duration) (opStats, error) {
	h := s.load()
	st := closedLoop(limit{d: d}, clients, 0, h.do(nil))
	return st, h.get()
}

func (s *distSession) layers(d time.Duration, rec *recorder) (map[string]float64, opStats, error) {
	v := map[string]float64{}
	h := s.load()
	plain, traced := alternate(d*2/5, rec, func(_, from int, rec *recorder) opStats {
		return closedLoop(limit{ops: 128}, clients, from, h.do(rec))
	})
	fail := h.get()
	v["bench.traced_ops_s"] = traced.throughput()
	v["bench.trace_overhead_pct"] = overheadPct(plain, traced, false)
	st := plain
	st.add(traced)
	httpLat := sorted(st.lat)
	v["serve.op_p99_ms"] = percentile(httpLat, 99)
	v["serve.rejected"] = float64(st.refused)

	if err := s.distProbes(d*3/5, percentile(httpLat, 50), rec, v); err != nil {
		fail = err
	}
	m := s.rt.Metrics()
	v["distserve.retries"] = float64(m.Counter("dist.retries").Value())
	v["distserve.ejections"] = float64(m.Counter("dist.ejections").Value())
	return v, st, fail
}

// haloRows is what a shard publishes to its exchange after a stage: its
// band of that stage's output.
type haloRows struct {
	rows distserve.Range
	t    *tensor.Tensor
}

func intersect(a, b distserve.Range) distserve.Range {
	r := distserve.Range{Lo: max(a.Lo, b.Lo), Hi: min(a.Hi, b.Hi)}
	if r.Hi < r.Lo {
		r.Hi = r.Lo
	}
	return r
}

// haloGeometry computes, from Plan.Owners and Stage.InputRange alone, the
// bytes of halo rows a gang of n exchanges per image and the largest
// input band any shard holds for any stage — the per-worker footprint
// proxy until workers run out of process.
func haloGeometry(p *distserve.Plan, n int) (haloBytes, maxInputBytes int64) {
	owners := p.Owners(n)
	for i, st := range p.Stages {
		for sh := 0; sh < n; sh++ {
			need := st.ClipInput(st.InputRange(owners[i][sh]))
			rowBytes := int64(st.InC) * int64(st.InW) * 4
			maxInputBytes = max(maxInputBytes, int64(need.Len())*rowBytes)
			if i == 0 {
				continue // the router scatters stage 0's rows; no halo
			}
			for o, band := range owners[i-1] {
				if o != sh {
					haloBytes += int64(intersect(band, need).Len()) * rowBytes
				}
			}
		}
	}
	return haloBytes, maxInputBytes
}

// distProbes takes the distributed path apart with the same public calls
// the router and workers make: the plan, one Router.Predict without HTTP,
// the shards' compute with halos exchanged in memory, the tail executor,
// and the two dist primitives underneath (an RPC round trip and an
// Exchange publish→wait).
func (s *distSession) distProbes(budget time.Duration, httpP50 float64, rec *recorder, v map[string]float64) error {
	root := rec.start("probe.dist", -1, -1, 0)
	defer rec.end(root)
	slice := budget / 6
	spec := s.spec
	spec.MaxBatch = 1 // as the router and workers materialize it
	m, store, err := serve.Materialize(spec)
	if err != nil {
		return err
	}
	var plan *distserve.Plan
	v["distserve.plan_ms"] = probe(rec, "distserve.plan", root, slice/2, 5, func() {
		plan, err = distserve.NewPlan(m)
	})
	if err != nil {
		return err
	}
	halo, maxIn := haloGeometry(plan, gang)
	v["distserve.halo_bytes_per_img"] = float64(halo)
	v["distserve.shard_input_bytes_max"] = float64(maxIn)

	// Router.Predict, one caller, no HTTP or JSON.
	i := 0
	predict := probe(rec, "distserve.router_predict", root, slice, 5, func() {
		img := s.traffic.pick(i)
		logits, shards, e := s.rt.Predict(s.traffic.pool[img], time.Now().Add(2*time.Second), nil)
		if e == nil && (shards != gang || !bitIdentical(logits, s.traffic.refs[img])) {
			e = fmt.Errorf("Router.Predict(image %d): %d shards, logits %v, want %d and %v", img, shards, logits, gang, s.traffic.refs[img])
		}
		if e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return err
	}
	v["distserve.router_predict_ms"] = predict

	// The gang's compute with halos handed over in memory: what the two
	// workers do minus RPC and gob.
	se, err := distserve.NewShardEval(plan, store)
	if err != nil {
		return err
	}
	image := tensor.New(1, plan.InC, plan.InH, plan.InW)
	copy(image.Data(), s.traffic.pool[0])
	var fm *tensor.Tensor
	n := 0
	shard := median(timeLoop(slice, 5, func() {
		r := rec
		if n++; n > probeSpans {
			r = nil
		}
		id := r.start("distserve.shard_gang", root, -1, 0)
		fm, err = runGang(se, image, r, id)
		r.end(id)
	}))
	if err != nil {
		return err
	}
	v["distserve.shard_compute_ms"] = shard

	// The tail: the router resumes the graph from the gathered map.
	ex, err := graph.NewExecutor(m.Graph, store)
	if err != nil {
		return err
	}
	ex.UseArena(tensor.NewArena())
	var logits []float32
	tail := probe(rec, "distserve.tail", root, slice, 5, func() {
		outs, e := ex.ForwardFrom(graph.Feeds{}, map[string]*tensor.Tensor{plan.Tail: fm})
		if e != nil {
			err = e
			return
		}
		logits = outs[0].Data()
	})
	if err != nil {
		return err
	}
	if !bitIdentical(logits, s.traffic.refs[0]) {
		return fmt.Errorf("in-memory gang + tail: logits %v differ from the reference %v", logits, s.traffic.refs[0])
	}
	v["distserve.tail_ms"] = tail
	v["distserve.transport_self_ms"] = predict - shard - tail
	v["serve.http_self_ms"] = httpP50 - predict

	pool := dist.NewClientPool()
	defer pool.Close()
	addr := s.workers[0].Addr()
	v["dist.rpc_roundtrip_us"] = 1e3 * probe(rec, "dist.rpc_health", root, slice, 20, func() {
		var reply distserve.HealthReply
		if e := pool.Call(addr, "Shard.Health", &distserve.HealthArgs{}, &reply, time.Second); e != nil {
			err = e
		}
	})
	x := dist.NewExchange()
	i = 0
	v["dist.exchange_roundtrip_us"] = 1e3 * median(timeLoop(slice/2, 20, func() {
		id := fmt.Sprintf("r%d", i)
		x.Publish(id, 0, i)
		if _, e := x.Wait(id, 0, time.Second); e != nil {
			err = e
		}
		x.Release(id)
		i++
	}))
	return err
}

// runGang evaluates both shards of one image concurrently, halo rows
// flowing through per-shard dist.Exchanges as in the RPC workers, and
// stitches the final-stage bands into the full feature map. The caller
// times the whole gang, i.e. its slowest shard.
func runGang(se *distserve.ShardEval, image *tensor.Tensor, rec *recorder, parent int) (*tensor.Tensor, error) {
	p := se.Plan()
	owners := p.Owners(gang)
	exch := make([]*dist.Exchange, gang)
	for s := range exch {
		exch[s] = dist.NewExchange()
	}
	const req = "g"
	last := p.Last()
	full := tensor.New(1, last.OutC, last.OutH, last.OutW)
	outs := make([]*tensor.Tensor, gang)
	bands := make([]distserve.Range, gang)
	errs := make([]error, gang)
	var wg sync.WaitGroup
	for s := 0; s < gang; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := rec.start("distserve.run_shard", parent, s, s+1)
			defer rec.end(id)
			var band *tensor.Tensor
			if r := p.ImageRange(owners, s); !r.Empty() {
				band = distserve.SliceRows(image, 0, r)
			}
			fetch := func(stage, owner int, rows distserve.Range) (*tensor.Tensor, error) {
				v, err := exch[owner].Wait(req, stage, 10*time.Second)
				if err != nil {
					return nil, err
				}
				hr := v.(haloRows)
				return distserve.SliceRows(hr.t, hr.rows.Lo, rows), nil
			}
			publish := func(stage int, rows distserve.Range, y *tensor.Tensor) {
				exch[s].Publish(req, stage, haloRows{rows, y})
			}
			outs[s], bands[s], errs[s] = se.RunShard(band, s, owners, fetch, publish, nil)
			if errs[s] != nil {
				for _, e := range exch { // fail the partner's waits fast
					e.Fail(req, errs[s], time.Now())
				}
			}
		}(s)
	}
	wg.Wait()
	for s := 0; s < gang; s++ {
		if errs[s] != nil {
			return nil, fmt.Errorf("shard %d: %w", s, errs[s])
		}
		if outs[s] == nil {
			continue
		}
		// Rows are contiguous per channel in NCHW: copy band by channel.
		fs, bs := full.Shape(), outs[s].Shape()
		w := fs.W()
		for c := 0; c < fs.C(); c++ {
			dst := full.Data()[(c*fs.H()+bands[s].Lo)*w:]
			src := outs[s].Data()[c*bs.H()*w : (c+1)*bs.H()*w]
			copy(dst, src)
		}
	}
	return full, nil
}
