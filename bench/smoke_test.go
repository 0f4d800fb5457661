package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// beMain makes the test binary stand in for the bench command: the suite
// re-executes os.Executable() once per workload and pass, and under
// `go test` that is this binary.
const beMain = "BENCH_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMain) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke is `bench -smoke`: all five workloads, end-to-end pass and
// traced pass, each in its own child process, at a fraction of a second
// each. It checks what only a real run can: every output check passes on
// HEAD, every metric of the catalogue is reported, and each traced run
// leaves a loadable trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads twice")
	}
	if runtime.NumCPU() < procs {
		t.Skipf("needs %d CPUs", procs)
	}
	t.Setenv(beMain, "1")
	traceDir := t.TempDir()
	sets, err := runSets(1, 1, inputs{seed: 1, seconds: 0.4}, traceDir)
	if err != nil {
		t.Fatal(err)
	}
	run := sets[0]
	if err := verdict(run); err != nil {
		t.Error(err)
	}
	for _, w := range workloads {
		e2e, layers := run.EndToEnd[w.name], run.PerLayer[w.name]
		if len(e2e.Metrics) != len(endToEnd) || len(layers.Metrics) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				w.name, len(e2e.Metrics), len(layers.Metrics), len(endToEnd), len(perLayer))
		}
		for _, m := range endToEnd {
			if v, ok := e2e.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: %s = %+v; an end-to-end metric is never 0", w.name, m.name, v)
			}
		}
		if e2e.Attempted < 1 || e2e.Failed != 0 || layers.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d end to end and %d traced", w.name, e2e.Attempted, e2e.Failed, layers.Failed)
		}
		if layers.Metrics["bench.traced_ops_s"].Value <= 0 {
			t.Errorf("%s: traced run completed no op", w.name)
		}
		raw, err := os.ReadFile(filepath.Join(traceDir, w.name+".trace.json"))
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		var events []chromeEvent
		if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
			t.Errorf("%s: trace does not load (%d events): %v", w.name, len(events), err)
		}
	}
	// The layers a workload is meant to exercise report something; the
	// bypass workload reports nothing under tensor.
	for workload, names := range map[string][]string{
		"plan_imagenet": {"core.split_ms", "hmms.plan_memory_ms", "sim.replay_ms", "sim.planned_device_gib", "models.build_ms"},
		"train_sscnn":   {"tensor.conv_bwd_ms", "graph.backward_ms", "core.split_mini_ms", "train.sgd_ms", "train.eval_ms"},
		"serve_closed":  {"tensor.conv_fwd_ms", "nn.conv_dispatch_ms", "graph.interp_forward_ms", "serve.instance_run_b8_ms", "serve.avg_batch", "trace.span_ns"},
		"serve_open":    {"serve.queue_wait_p50_ms", "serve.op_p99_ms", "graph.compiled_forward_ms"},
		"dist_gang2":    {"distserve.router_predict_ms", "distserve.shard_compute_ms", "distserve.halo_bytes_per_img", "dist.rpc_roundtrip_us"},
	} {
		for _, name := range names {
			if run.PerLayer[workload].Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want a measurement", workload, name, run.PerLayer[workload].Metrics[name].Value)
			}
		}
	}
	if v := run.PerLayer["plan_imagenet"].Metrics["tensor.conv_fwd_ms"].Value; v != 0 {
		t.Errorf("plan_imagenet reports tensor.conv_fwd_ms = %v; it runs no tensor arithmetic", v)
	}
}
