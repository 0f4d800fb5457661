package main

import (
	"fmt"
	"io"
	"time"

	"splitcnn/internal/core"
	"splitcnn/internal/graph"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// layers is the traced run of serve_closed / serve_open: two fifths of d drive
// the workload, untraced and traced in turn; the rest is split over probes
// around serve, graph, nn, tensor and trace calls.
func (s *serveSession) layers(d time.Duration, rec *recorder) (map[string]float64, opStats, error) {
	v := map[string]float64{}
	h := &httpLoad{in: s.traffic, clients: s.clients}
	plain, traced := alternate(d*2/5, rec, func(round, from int, rec *recorder) opStats {
		return s.drive(d/20, round, from, h.do(rec))
	})
	fail := h.get()
	v["bench.traced_ops_s"] = traced.throughput()
	v["bench.trace_overhead_pct"] = overheadPct(plain, traced, s.open)
	st := plain
	st.add(traced)
	if s.open {
		v["bench.late_ratio"] = float64(st.late) / float64(max(st.attempted, 1))
	}
	httpLat := sorted(st.lat)
	v["serve.op_p99_ms"] = percentile(httpLat, 99)
	v["serve.rejected"] = float64(st.refused)
	v["serve.queue_wait_p50_ms"] = median(h.queueMs)
	v["serve.avg_batch"] = mean(h.batch)
	body := 0
	for _, b := range s.traffic.bodies {
		body += len(b)
	}
	v["serve.request_body_bytes"] = float64(body) / float64(len(s.traffic.bodies))
	v["trace.metrics_scrape_ms"] = probe(rec, "trace.metrics_scrape", -1, d/50, 5, func() {
		if err := s.srv.Metrics().WritePrometheus(io.Discard); err != nil {
			fail = err
		}
	})
	v["trace.span_ns"] = spanCostNs(d / 50)

	if err := s.serveProbes(d/4, percentile(httpLat, 50), rec, v); err != nil {
		fail = err
	}
	if err := servingGraphProbes(s.spec, s.in.seed, d*3/10, rec, v); err != nil {
		fail = err
	}
	return v, st, fail
}

// spanCostNs is the cost of one sampled request through the program's own
// WallTracer span API (Request → StartSpan → end → Finish), the budget
// ROADMAP item 5(e) talks about.
func spanCostNs(budget time.Duration) float64 {
	const n = 2000 // stays under the tracer's span cap, so nothing is dropped
	return median(timeLoop(budget, 3, func() {
		tr := trace.NewWallTracer(1, 1)
		for i := 0; i < n; i++ {
			sc := tr.Request("bench")
			sc.StartSpan("forward")()
			tr.Finish(sc)
		}
	})) * 1e6 / n
}

// serveProbes measures the serve layer from the inside out — Load,
// Instance.Run, then a Batcher in front of it driven by the workload's
// own loop — so each level's self time is a difference of medians.
func (s *serveSession) serveProbes(budget time.Duration, httpP50 float64, rec *recorder, v map[string]float64) error {
	root := rec.start("probe.serve", -1, -1, 0)
	defer rec.end(root)
	var inst *serve.Instance
	var err error
	v["serve.load_ms"] = probe(rec, "serve.load", root, budget/5, 2, func() {
		inst, err = serve.Load(s.spec)
	})
	if err != nil {
		return err
	}
	run := func(name string, batch int) float64 {
		imgs := s.traffic.pool[:batch]
		return probe(rec, name, root, budget/5, 5, func() {
			out, e := inst.Run(imgs)
			if e == nil && !bitIdentical(out[0], s.traffic.refs[0]) {
				e = fmt.Errorf("%s: logits differ from the reference", name)
			}
			if e != nil {
				err = e
			}
		})
	}
	b1 := run("serve.instance_run_b1", 1)
	v["serve.instance_run_b1_ms"] = b1
	v["serve.instance_run_b8_ms"] = run("serve.instance_run_b8", 8)
	if err != nil {
		return err
	}

	b := serve.NewBatcher(inst, serve.BatcherOptions{})
	defer b.Shutdown()
	var bad errBox
	bst := s.drive(budget*2/5, 0, 0, func(lane, i int) outcome {
		img := s.traffic.pick(i)
		id := rec.start("serve.batcher_submit", root, i, lane+1)
		defer rec.end(id)
		ch, e := b.Submit(&serve.Request{Image: s.traffic.pool[img]})
		if e != nil {
			bad.fail(e)
			return opRefused
		}
		resp := <-ch
		if resp.Err != nil || !bitIdentical(resp.Logits, s.traffic.refs[img]) {
			bad.fail(fmt.Errorf("batcher request %d: err %v, logits %v want %v", i, resp.Err, resp.Logits, s.traffic.refs[img]))
			return opFailed
		}
		return opOK
	})
	batcherP50 := median(bst.lat)
	v["serve.batcher_self_ms"] = batcherP50 - b1
	v["serve.http_self_ms"] = httpP50 - batcherP50
	return bad.get()
}

// servingGraphProbes measures graph, nn and tensor on the graph the
// serving workloads execute (serve.Materialize of the shared spec, at
// executor batch 8).
func servingGraphProbes(spec serve.Spec, seed int64, budget time.Duration, rec *recorder, v map[string]float64) error {
	root := rec.start("probe.graph", -1, -1, 0)
	defer rec.end(root)
	m, store, err := serve.Materialize(spec)
	if err != nil {
		return err
	}
	in := m.Input.Shape
	feeds := graph.Feeds{
		"image":  randTensor(stream(seed, streamProbe), in.N(), in.C(), in.H(), in.W()),
		"labels": tensor.New(in.N()),
	}
	slice := budget / 10

	var ex *graph.Executor
	v["graph.executor_build_ms"] = probe(rec, "graph.executor_build", root, slice/2, 5, func() {
		ex, err = graph.NewExecutor(m.Graph, store)
	})
	if err != nil {
		return err
	}
	ex.UseArena(tensor.NewArena())
	id := rec.start("graph.interp_forward", root, -1, 0)
	interp, alloc, arena, err := forwardProbe(ex, feeds, slice)
	rec.end(id)
	if err != nil {
		return err
	}
	v["graph.interp_forward_ms"] = interp
	v["graph.alloc_bytes_per_forward"] = alloc
	v["tensor.arena_hit_rate"] = arena.HitRate()
	v["tensor.arena_high_water_bytes"] = float64(arena.HighWaterBytes)

	var prog *graph.CompiledProgram
	v["graph.compile_ms"] = probe(rec, "graph.compile", root, slice/2, 3, func() {
		prog, err = graph.Compile(m.Graph, store, graph.CompileOptions{})
	})
	if err != nil {
		return err
	}
	v["graph.slab_bytes"] = float64(prog.SlabBytes())
	v["graph.compiled_forward_ms"] = probe(rec, "graph.compiled_forward", root, slice, 5, func() {
		if _, e := prog.Forward(feeds); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	sr, err := core.Split(m.Graph, core.Config{Depth: 0.5, NH: 2, NW: 2})
	if err != nil {
		return err
	}
	sex, err := graph.NewExecutor(sr.Graph, store)
	if err != nil {
		return err
	}
	sex.UseArena(tensor.NewArena())
	id = rec.start("graph.split_forward", root, -1, 0)
	v["graph.split_forward_ms"], _, _, err = forwardProbe(sex, feeds, slice)
	rec.end(id)
	if err != nil {
		return err
	}

	id = rec.start("probe.convs", root, -1, 0)
	convs := probeConvs(convSites(m.Graph), budget-4*slice, false, seed)
	rec.end(id)
	convs.into(v)
	v["nn.nonconv_fwd_ms"] = interp - convs.dispatchMs
	return nil
}
