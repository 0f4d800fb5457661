package main

// The catalogue is the benchmark's vocabulary: every workload and every
// metric the runner can print, with its unit and direction. BENCHMARK.json
// at the repository root carries the same names (catalog_test.go pins the
// two against each other), so a later change argues about
// "op_p95_ms on serve_open" and means exactly one number.

type workloadDef struct {
	name string
	// imagesPerOp converts ops to images (stated next to throughput).
	imagesPerOp int
	// loop says who decides when the next op starts.
	loop string
	why  string
	open func(in inputs) (session, error)
}

type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics carry none.
	bound float64
}

var workloads = []workloadDef{
	{"plan_imagenet", 1, "closed, 1 caller",
		"planner only (models, core.Split, hmms, sim on full-size ImageNet nets); no tensor arithmetic, so it bypasses every kernel or serving change",
		openPlan},
	{"train_sscnn", 32, "closed, 1 caller",
		"stochastic-split training of mini VGG-19: the only path paying core.Split and executor build per step, and running backward kernels and SGD",
		openTrain},
	{"serve_closed", 1, "closed, 2 clients",
		"saturation throughput of the default single-process serving path: JSON, batcher, interpreted forward at batch 8, conv kernels",
		func(in inputs) (session, error) { return openServe(in, false) }},
	{"serve_open", 1, "open, 100 req/s",
		"Poisson arrivals at about half capacity, timed from due time: batcher delay and queueing dominate, so throughput bought with delay shows in p95",
		func(in inputs) (session, error) { return openServe(in, true) }},
	{"dist_gang2", 1, "closed, 2 clients",
		"router over a 2-worker loopback gang: scatter, gob RPC, halo exchange, gather and tail on the critical path while the batcher is bypassed",
		openDist},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd lists what a user of the system sees; every workload reports
// all of them with tracing off. Each bound is max(issue 12's proposal,
// 2 × the widest quartile spread any workload shows in results/aa.json),
// capped at the contract's ceiling of 0.25 — README.md, "Bounds", has the
// table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
}

// perLayer lists the traced run's numbers. A metric whose layer is not on
// a workload's path reads 0 there (README.md has the layer → workload
// table). Counts marked exact in the README repeat bit for bit.
var perLayer = []metricDef{
	{"tensor.conv_fwd_ms", "ms", "lower", 0},
	{"tensor.conv_fwd_gflops", "GFLOP/s", "higher", 0},
	{"tensor.conv_bwd_ms", "ms", "lower", 0},
	{"tensor.conv_bwd_gflops", "GFLOP/s", "higher", 0},
	{"tensor.conv_flops", "count", "lower", 0},
	{"tensor.conv_bytes", "B", "lower", 0},
	{"tensor.gemm_gflops", "GFLOP/s", "higher", 0},
	{"tensor.im2col_gbs", "GB/s", "higher", 0},
	{"tensor.arena_hit_rate", "ratio", "higher", 0},
	{"tensor.arena_high_water_bytes", "B", "lower", 0},

	{"nn.conv_dispatch_ms", "ms", "lower", 0},
	{"nn.nonconv_fwd_ms", "ms", "lower", 0},

	{"graph.interp_forward_ms", "ms", "lower", 0},
	{"graph.compiled_forward_ms", "ms", "lower", 0},
	{"graph.split_forward_ms", "ms", "lower", 0},
	{"graph.backward_ms", "ms", "lower", 0},
	{"graph.executor_build_ms", "ms", "lower", 0},
	{"graph.compile_ms", "ms", "lower", 0},
	{"graph.slab_bytes", "B", "lower", 0},
	{"graph.alloc_bytes_per_forward", "B", "lower", 0},

	{"core.split_ms", "ms", "lower", 0},
	{"core.split_mini_ms", "ms", "lower", 0},
	{"core.split_nodes", "count", "lower", 0},
	{"core.realized_depth", "ratio", "higher", 0},

	{"models.build_ms", "ms", "lower", 0},

	{"hmms.build_program_ms", "ms", "lower", 0},
	{"hmms.assign_storage_ms", "ms", "lower", 0},
	{"hmms.plan_offload_ms", "ms", "lower", 0},
	{"hmms.plan_memory_ms", "ms", "lower", 0},
	{"hmms.offload_fraction", "ratio", "higher", 0},
	{"hmms.fragmentation_device_general", "ratio", "lower", 0},
	{"hmms.tso_count", "count", "lower", 0},

	{"sim.run_ms", "ms", "lower", 0},
	{"sim.replay_ms", "ms", "lower", 0},
	{"sim.stall_seconds", "s", "lower", 0},
	{"sim.degradation", "ratio", "lower", 0},
	{"sim.planned_device_gib", "GiB", "lower", 0},
	{"sim.img_per_s", "img/s", "higher", 0},

	{"train.sgd_ms", "ms", "lower", 0},
	{"train.eval_ms", "ms", "lower", 0},
	{"train.step_self_ms", "ms", "lower", 0},
	{"train.final_loss", "nats", "lower", 0},

	{"serve.load_ms", "ms", "lower", 0},
	{"serve.instance_run_b1_ms", "ms", "lower", 0},
	{"serve.instance_run_b8_ms", "ms", "lower", 0},
	{"serve.batcher_self_ms", "ms", "lower", 0},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0},
	{"serve.avg_batch", "img", "higher", 0},
	{"serve.http_self_ms", "ms", "lower", 0},
	{"serve.request_body_bytes", "B", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.op_p99_ms", "ms", "lower", 0},

	{"distserve.plan_ms", "ms", "lower", 0},
	{"distserve.router_predict_ms", "ms", "lower", 0},
	{"distserve.shard_compute_ms", "ms", "lower", 0},
	{"distserve.tail_ms", "ms", "lower", 0},
	{"distserve.transport_self_ms", "ms", "lower", 0},
	{"distserve.halo_bytes_per_img", "B", "lower", 0},
	{"distserve.shard_input_bytes_max", "B", "lower", 0},
	{"distserve.retries", "count", "lower", 0},
	{"distserve.ejections", "count", "lower", 0},

	{"dist.rpc_roundtrip_us", "us", "lower", 0},
	{"dist.exchange_roundtrip_us", "us", "lower", 0},

	{"trace.span_ns", "ns", "lower", 0},
	{"trace.metrics_scrape_ms", "ms", "lower", 0},

	{"bench.traced_ops_s", "1/s", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.late_ratio", "ratio", "lower", 0},
	{"bench.fail_ratio", "ratio", "lower", 0},
}
