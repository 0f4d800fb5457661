package distserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"splitcnn/internal/debugz"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

// TestStitchedTraceE2E is the tentpole acceptance check: a sampled
// request through a 4-worker gang yields ONE stitched timeline on
// /tracez — router spans plus every worker's stage spans, skew-
// corrected, every child nested within its parent's interval.
func TestStitchedTraceE2E(t *testing.T) {
	spec := testSpec("vgg16")
	rng := rand.New(rand.NewSource(7))
	img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
	for i := range img {
		img[i] = rng.Float32()
	}
	rt, workers, base := startFleet(t, spec, 4, WorkerConfig{},
		RouterOptions{RequestTimeout: 30 * time.Second, Debug: debugz.Options{TraceSample: 1}})
	if len(workers) != 4 {
		t.Fatal("fleet size")
	}

	status, pr, msg := postPredict(t, base, serve.PredictRequest{Image: img})
	if status != http.StatusOK {
		t.Fatalf("predict: %d %s", status, msg)
	}
	if pr.BatchSize != 4 {
		t.Fatalf("gang width %d, want 4", pr.BatchSize)
	}

	// The first HTTP request's trace ID.
	const reqID = "http-000001"
	spans := StitchedFromEvents(rt.Tracer().Trace().Events(), reqID)
	if len(spans) == 0 {
		t.Fatal("no stitched spans on the tracer")
	}

	// Re-verify the exported timeline independently of the router's own
	// verification pass.
	if err := VerifyStitched(spans); err != nil {
		t.Fatalf("exported timeline fails verification: %v", err)
	}
	if got := rt.Metrics().Counter("dist.stitch_errors").Value(); got != 0 {
		t.Fatalf("dist.stitch_errors = %d, want 0", got)
	}

	// One row per process: the router plus all 4 workers.
	procs := map[string]int{}
	byProcName := map[string]bool{}
	for _, s := range spans {
		procs[s.Process]++
		byProcName[s.Process+"/"+s.Name] = true
	}
	if procs["router"] == 0 {
		t.Fatal("no router row")
	}
	workerRows := 0
	for p := range procs {
		if strings.HasPrefix(p, "shard") {
			workerRows++
		}
	}
	if workerRows != 4 {
		t.Fatalf("stitched timeline has %d worker rows, want 4 (processes: %v)", workerRows, procs)
	}

	// Router lanes all present.
	for _, name := range []string{"request", "admit", "scatter_gather", "gather", "tail", "respond"} {
		if !byProcName["router/"+name] {
			t.Fatalf("router span %q missing", name)
		}
	}
	// Every worker row carries its shard_eval root and at least one
	// stage span; interior shards also wait on halos.
	for i, w := range workers {
		_ = i
		found := false
		for p := range procs {
			if strings.HasSuffix(p, w.Addr()) {
				found = true
				var hasEval, hasStage bool
				for _, s := range spans {
					if s.Process != p {
						continue
					}
					switch {
					case s.Name == "shard_eval":
						hasEval = true
					case strings.HasPrefix(s.Name, "stage:"):
						hasStage = true
					}
				}
				if !hasEval || !hasStage {
					t.Fatalf("row %s: shard_eval=%v stage=%v", p, hasEval, hasStage)
				}
			}
		}
		if !found {
			t.Fatalf("worker %s has no timeline row", w.Addr())
		}
	}
	// Halo traffic must be visible somewhere: vgg16 interior shards
	// both wait on and serve halo rows.
	var hasWait, hasServe bool
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "halo_wait:") {
			hasWait = true
		}
		if strings.HasPrefix(s.Name, "halo_serve:") {
			hasServe = true
		}
	}
	if !hasWait || !hasServe {
		t.Fatalf("halo spans missing from timeline (wait=%v serve=%v)", hasWait, hasServe)
	}

	// /tracez serves the same events over HTTP.
	resp, err := http.Get(base + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []trace.Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if got := len(StitchedFromEvents(events, reqID)); got != len(spans) {
		t.Fatalf("/tracez returned %d stitched spans, tracer holds %d", got, len(spans))
	}
}

// TestClusterzConsistency: after a drained load burst, the /clusterz
// rollups must match the per-worker registries exactly — sum of worker
// request counters == sum of router dispatch counters — and the
// Prometheus rendering must carry per-worker labeled series.
func TestClusterzConsistency(t *testing.T) {
	spec := testSpec("resnet18")
	rng := rand.New(rand.NewSource(11))
	img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
	for i := range img {
		img[i] = rng.Float32()
	}
	rt, workers, base := startFleet(t, spec, 3,
		WorkerConfig{}, RouterOptions{RequestTimeout: 30 * time.Second})

	const reqs = 5
	for i := 0; i < reqs; i++ {
		if status, _, msg := postPredict(t, base, serve.PredictRequest{Image: img}); status != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, status, msg)
		}
	}

	resp, err := http.Get(base + "/clusterz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view clusterView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if len(view.Workers) != 3 || len(view.Unreachable) != 0 {
		t.Fatalf("scraped %d workers (%d unreachable), want 3/0", len(view.Workers), len(view.Unreachable))
	}

	// Exact rollup identity: the cluster gauges are recomputable from
	// the per-worker snapshots in the same payload.
	var workerSum int64
	for addr, snap := range view.Workers {
		n := snap.Counters["dist.worker.requests"]
		if n == 0 {
			t.Fatalf("worker %s served no requests across %d predicts", addr, reqs)
		}
		workerSum += n
	}
	if got := view.Cluster.Gauges["cluster.worker_requests_total"]; got != float64(workerSum) {
		t.Fatalf("rollup worker_requests_total = %v, per-worker sum = %d", got, workerSum)
	}
	// Drained fleet: router-side dispatch mirror agrees exactly.
	if got := view.Cluster.Gauges["cluster.router_dispatches_total"]; got != float64(workerSum) {
		t.Fatalf("router dispatches %v != worker requests %d after drain", got, workerSum)
	}
	if got := view.Cluster.Gauges["cluster.requests_consistent"]; got != 1 {
		t.Fatalf("cluster.requests_consistent = %v, want 1", got)
	}
	if got := rt.Metrics().Counter("dist.dispatches").Value(); got != workerSum {
		t.Fatalf("dist.dispatches = %d, worker sum = %d", got, workerSum)
	}
	if view.Cluster.Gauges["cluster.workers"] != 3 || view.Cluster.Gauges["cluster.workers_reachable"] != 3 {
		t.Fatalf("worker counts: %+v", view.Cluster.Gauges)
	}

	// Prometheus rendering: one labeled series per worker.
	resp2, err := http.Get(base + "/clusterz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	prom := buf.String()
	for _, w := range workers {
		series := fmt.Sprintf(`dist_worker_requests{worker=%q}`, w.Addr())
		if !strings.Contains(prom, series) {
			t.Fatalf("prom output missing %s\n%s", series, prom)
		}
	}
	if !strings.Contains(prom, "cluster_requests_consistent 1") {
		t.Fatal("prom output missing unlabeled rollup gauge")
	}
	if strings.Count(prom, "# TYPE dist_worker_requests counter") != 1 {
		t.Fatal("family TYPE line must appear exactly once across workers")
	}
}

// TestClusterzScrapeRace hammers /clusterz (all three formats) while
// predictions are in flight — the scrape-vs-record race the federation
// layer must tolerate (run under -race in make ci).
func TestClusterzScrapeRace(t *testing.T) {
	spec := testSpec("resnet18")
	rng := rand.New(rand.NewSource(13))
	img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
	for i := range img {
		img[i] = rng.Float32()
	}
	_, _, base := startFleet(t, spec, 2,
		WorkerConfig{MaxPods: 8}, RouterOptions{RequestTimeout: 30 * time.Second, Debug: debugz.Options{TraceSample: 1}, SLO: "p99=1s,err=1%"})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/clusterz", "/clusterz?format=prom", "/clusterz?format=json", "/metricsz"} {
					resp, err := http.Get(base + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if status, _, msg := postPredict(t, base, serve.PredictRequest{Image: img}); status != http.StatusOK {
			t.Fatalf("predict under scrape load: %d %s", status, msg)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWorkersEndpointBuildInfoAndSkew: /v1/workers reports each
// worker's build identity and a clock-skew estimate (near zero for
// same-host workers, but present).
func TestWorkersEndpointBuildInfoAndSkew(t *testing.T) {
	spec := testSpec("resnet18")
	_, _, base := startFleet(t, spec, 2, WorkerConfig{},
		RouterOptions{RequestTimeout: 10 * time.Second})

	resp, err := http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("workers: %d", len(infos))
	}
	for _, wi := range infos {
		if wi.Build == nil || wi.Build.GoVersion == "" {
			t.Fatalf("worker %s: no build info (%+v)", wi.Addr, wi.Build)
		}
		if wi.ClockRTTSeconds <= 0 {
			t.Fatalf("worker %s: no clock estimate (rtt %v)", wi.Addr, wi.ClockRTTSeconds)
		}
		if wi.ClockSkewSeconds > 1 || wi.ClockSkewSeconds < -1 {
			t.Fatalf("worker %s: implausible same-host skew %vs", wi.Addr, wi.ClockSkewSeconds)
		}
	}
}

// TestSLOGauges: a router started with an SLO publishes burn-rate
// gauges on /metricsz, and a clean fast request burns nothing.
func TestSLOGauges(t *testing.T) {
	spec := testSpec("resnet18")
	rng := rand.New(rand.NewSource(17))
	img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
	for i := range img {
		img[i] = rng.Float32()
	}
	_, _, base := startFleet(t, spec, 2, WorkerConfig{},
		RouterOptions{RequestTimeout: 30 * time.Second, SLO: "p99=10s,err=1%"})
	if status, _, msg := postPredict(t, base, serve.PredictRequest{Image: img}); status != http.StatusOK {
		t.Fatalf("predict: %d %s", status, msg)
	}

	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"slo.latency_burn_5m", "slo.error_burn_5m", "slo.latency_burn_1h", "slo.error_burn_1h"} {
		v, ok := snap.Gauges[g]
		if !ok {
			t.Fatalf("gauge %s missing from /metricsz", g)
		}
		if v != 0 {
			t.Fatalf("gauge %s = %v after one clean fast request, want 0", g, v)
		}
	}
	if snap.Gauges["slo.latency_target_seconds"] != 10 {
		t.Fatalf("slo.latency_target_seconds = %v", snap.Gauges["slo.latency_target_seconds"])
	}

	// A bad SLO string must refuse to build a router.
	if _, err := NewRouter(RouterOptions{Spec: spec, Workers: []string{"127.0.0.1:1"}, SLO: "p99=banana"}); err == nil {
		t.Fatal("bad -slo accepted")
	}
}

// TestSpanBank covers the harvest buffer's lifecycle: auto-create on
// early halo, fetch-and-delete, FIFO eviction, expiry sweep.
func TestSpanBank(t *testing.T) {
	b := newSpanBank(2)
	exp := time.Now().Add(time.Minute)

	// Halo span lands before Eval: entry exists but is not harvestable.
	b.add("r1", exp, WireSpan{Name: "halo_serve:s0"})
	if _, _, ok := b.take("r1"); ok {
		t.Fatal("took an unfinished entry")
	}
	b.add("r1", exp, WireSpan{Name: "shard_eval"})
	b.finish("r1", 2)
	shard, spans, ok := b.take("r1")
	if !ok || shard != 2 || len(spans) != 2 {
		t.Fatalf("take: ok=%v shard=%d spans=%d", ok, shard, len(spans))
	}
	if _, _, ok := b.take("r1"); ok {
		t.Fatal("double take")
	}

	// FIFO eviction at capacity 2.
	b.add("a", exp, WireSpan{Name: "x"})
	b.add("b", exp, WireSpan{Name: "x"})
	b.add("c", exp, WireSpan{Name: "x"}) // evicts a
	b.finish("a", 0)
	if _, _, ok := b.take("a"); ok {
		t.Fatal("evicted entry still present")
	}
	b.finish("c", 0)
	if _, _, ok := b.take("c"); !ok {
		t.Fatal("newest entry evicted")
	}

	// drop discards failed attempts.
	b.add("d", exp, WireSpan{Name: "x"})
	b.drop("d")
	b.finish("d", 0)
	if _, _, ok := b.take("d"); ok {
		t.Fatal("dropped entry still present")
	}

	// Expiry sweep.
	b.add("e", time.Now().Add(-time.Second), WireSpan{Name: "x"})
	if n := b.sweep(time.Now()); n != 1 {
		t.Fatalf("sweep dropped %d, want 1", n)
	}
	if b.len() != 1 { // "b" still parked
		t.Fatalf("bank holds %d entries", b.len())
	}
}
