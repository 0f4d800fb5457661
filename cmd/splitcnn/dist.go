package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"splitcnn/internal/debugz"
	"splitcnn/internal/distserve"
	"splitcnn/internal/report"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "RPC listen address (host:port; :0 for a random port)")
	sf := addSpecFlags(fs)
	maxPods := fs.Int("maxpods", 4, "max concurrent shard evaluations (per-pod capacity limit)")
	logJSON := fs.Bool("logjson", false, "emit lifecycle logs as JSON instead of text")
	traceSample := fs.Float64("tracesample", 0, "fraction of shard evaluations recording per-stage wall spans")
	debugAddr := fs.String("debugaddr", "", "HTTP debug listener (host:port; :0 for a random port) serving /healthz, /metricsz, /tracez and on-demand /profilez captures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := sf.spec()
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	w, err := distserve.StartWorker(*addr, distserve.WorkerConfig{
		Spec:      spec,
		MaxPods:   *maxPods,
		Metrics:   trace.NewMetrics(),
		Logger:    slog.New(handler),
		DebugAddr: *debugAddr,
		Debug:     debugz.Options{TraceSample: *traceSample},
	})
	if err != nil {
		return err
	}
	p := w.Plan()
	fmt.Printf("shard worker %q (%d stages, tail %q, max pods %d) on %s\n",
		spec.Name, len(p.Stages), p.Tail, *maxPods, w.Addr())
	if w.DebugAddr() != "" {
		fmt.Printf("debug surface on http://%s/ (healthz, metricsz, tracez, profilez)\n", w.DebugAddr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("stopping...")
	return w.Close()
}

func cmdRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
	workersFlag := fs.String("workers", "", "comma-separated shard-worker RPC addresses")
	spawn := fs.Int("spawn", 0, "spawn this many in-process loopback workers instead of -workers")
	sf := addSpecFlags(fs)
	shards := fs.Int("shards", 0, "max shards per request (0 = all workers)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request deadline (scatter + gather + tail)")
	retries := fs.Int("retries", 2, "gang re-dispatch attempts after a worker failure")
	logJSON := fs.Bool("logjson", false, "emit request/lifecycle logs as JSON instead of text")
	traceSample := fs.Float64("tracesample", 0, "fraction of requests recording wall-clock stage spans (0 disables /tracez)")
	slo := fs.String("slo", "", `latency/error SLO publishing burn-rate gauges on /metricsz, e.g. "p99=50ms,err=0.1%"`)
	smoke := fs.Bool("smoke", false, "self-test: spawn loopback workers, verify bit-identity with single-process serve plus crash recovery and a federated observability pass, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *smoke {
		if *spawn <= 0 {
			*spawn = 4
		}
		*addr = "127.0.0.1:0"
		*timeout = 30 * time.Second
		if *traceSample <= 0 {
			*traceSample = 1
		}
		if *slo == "" {
			*slo = "p99=500ms,err=1%"
		}
	}
	spec := sf.spec()
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	var workers []*distserve.Worker
	addrs := splitComma(*workersFlag)
	if *spawn > 0 {
		if len(addrs) != 0 {
			return fmt.Errorf("router: -spawn and -workers are mutually exclusive")
		}
		for i := 0; i < *spawn; i++ {
			w, err := distserve.StartWorker("127.0.0.1:0", distserve.WorkerConfig{
				Spec: spec, Logger: logger,
			})
			if err != nil {
				return fmt.Errorf("router: spawn worker %d: %w", i, err)
			}
			defer w.Close()
			workers = append(workers, w)
			addrs = append(addrs, w.Addr())
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("router: no workers (use -workers host:port,... or -spawn N)")
	}
	rt, err := distserve.NewRouter(distserve.RouterOptions{
		Spec:           spec,
		Workers:        addrs,
		MaxShards:      *shards,
		RequestTimeout: *timeout,
		Retries:        *retries,
		Metrics:        trace.NewMetrics(),
		Logger:         logger,
		SLO:            *slo,
		Debug:          debugz.Options{TraceSample: *traceSample},
	})
	if err != nil {
		return err
	}
	bound, err := rt.Start(*addr)
	if err != nil {
		return err
	}
	p := rt.Plan()
	fmt.Printf("router %q (%d shardable stages, tail %q) over %d workers on http://%s\n",
		spec.Name, len(p.Stages), p.Tail, len(addrs), bound)

	if *smoke {
		return routerSmoke(rt, spec, "http://"+bound.String(), workers)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return rt.Shutdown(ctx)
}

func splitComma(s string) []string {
	var out []string
	for _, part := range bytes.Split([]byte(s), []byte(",")) {
		if p := string(bytes.TrimSpace(part)); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// routerSmoke is the CI `make dist-smoke` target: a four-worker
// loopback gang must answer bit-identically to the single-process
// serving path, keep answering after one worker is killed mid-fleet,
// and expose sane health/worker/metrics surfaces — all through real TCP
// RPC and real HTTP, inside this one process.
func routerSmoke(rt *distserve.Router, spec serve.Spec, base string, workers []*distserve.Worker) error {
	if len(workers) < 2 {
		return fmt.Errorf("smoke: needs -spawn >= 2, got %d workers", len(workers))
	}
	// Reference: the single-process serving path on the same spec.
	inst, err := serve.Load(spec)
	if err != nil {
		return fmt.Errorf("smoke: reference instance: %w", err)
	}
	img := make([]float32, inst.ImageLen())
	for i := range img {
		// Deterministic pseudo-image; any fixed pattern works.
		img[i] = float32(math.Sin(float64(i))) * 0.5
	}
	ref, err := inst.Run([][]float32{img})
	if err != nil {
		return fmt.Errorf("smoke: reference run: %w", err)
	}
	want := ref[0]

	predict := func() (serve.PredictResponse, error) {
		body, _ := json.Marshal(serve.PredictRequest{Image: img})
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return serve.PredictResponse{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return serve.PredictResponse{}, fmt.Errorf("predict status %d: %s", resp.StatusCode, b)
		}
		var pr serve.PredictResponse
		return pr, json.NewDecoder(resp.Body).Decode(&pr)
	}
	check := func(pr serve.PredictResponse, phase string) error {
		if len(pr.Logits) != len(want) {
			return fmt.Errorf("smoke (%s): %d logits, want %d", phase, len(pr.Logits), len(want))
		}
		for i := range want {
			if math.Float32bits(pr.Logits[i]) != math.Float32bits(want[i]) {
				return fmt.Errorf("smoke (%s): logit %d = %g, single-process serve says %g (not bit-identical)",
					phase, i, pr.Logits[i], want[i])
			}
		}
		return nil
	}

	pr, err := predict()
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if err := check(pr, "full fleet"); err != nil {
		return err
	}
	if pr.BatchSize < 2 {
		return fmt.Errorf("smoke: answered by %d shards, want a real gang", pr.BatchSize)
	}
	if err := smokeObservability(rt, base, workers, pr.BatchSize, predict); err != nil {
		return err
	}

	// Kill one worker; the fleet must keep answering bit-identically.
	workers[0].Close()
	pr, err = predict()
	if err != nil {
		return fmt.Errorf("smoke after worker kill: %w", err)
	}
	if err := check(pr, "degraded fleet"); err != nil {
		return err
	}
	// The failed attempt left tombstones on the survivors; they expire
	// within 5s plus one 500ms janitor tick, and nothing else may stay.
	for limit := time.Now().Add(7 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		if err = smokeExchangeDrained(base, len(workers)-1); err == nil {
			break
		}
		if time.Now().After(limit) {
			return fmt.Errorf("smoke after worker kill: %w", err)
		}
	}

	// Introspection surfaces.
	for _, path := range []string{"/healthz", "/v1/models", "/v1/workers", "/metricsz", "/tracez"} {
		resp, err := http.Get(base + path)
		if err != nil {
			return fmt.Errorf("smoke: %s: %w", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("smoke: %s status %d", path, resp.StatusCode)
		}
	}
	if n := rt.Metrics().Counter("dist.requests").Value(); n < 2 {
		return fmt.Errorf("smoke: dist.requests = %d, want >= 2", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		return fmt.Errorf("smoke: shutdown: %w", err)
	}
	fmt.Printf("dist smoke ok: %d workers, %d shards/request, argmax %d, bit-identical to single-process serve (incl. after 1 worker kill)\n",
		len(workers), pr.BatchSize, pr.Argmax)
	return nil
}

// smokeExchangeDrained checks, from /clusterz alone, that the halo plane
// of a drained fleet retains nothing: every one of the live workers
// reports zero resident exchange requests and zero resident halo bytes.
func smokeExchangeDrained(base string, live int) error {
	resp, err := http.Get(base + "/clusterz?format=json")
	if err != nil {
		return fmt.Errorf("/clusterz json: %w", err)
	}
	defer resp.Body.Close()
	var view struct {
		Workers map[string]trace.Snapshot `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return fmt.Errorf("/clusterz json decode: %w", err)
	}
	if len(view.Workers) != live {
		return fmt.Errorf("/clusterz reached %d workers, want %d live", len(view.Workers), live)
	}
	for addr, snap := range view.Workers {
		for _, name := range []string{"dist.worker.exchange_requests", "dist.worker.exchange_resident_bytes"} {
			if v, ok := snap.Gauges[name]; !ok || v != 0 {
				return fmt.Errorf("drained worker %s reports %s = %v (present %v), want 0", addr, name, v, ok)
			}
		}
	}
	return nil
}

// smokeObservability exercises the cluster observability plane against
// the live full-strength fleet: /clusterz federation is scraped
// mid-load (per-worker series must be present and the rollups
// consistent), the post-drain rollups must match the per-worker
// registries exactly, /tracez must hold a stitched multi-process
// timeline whose plotted critical path equals the measured request
// span, and the SLO burn-rate gauges must be published.
func smokeObservability(rt *distserve.Router, base string, workers []*distserve.Worker, gang int, predict func() (serve.PredictResponse, error)) error {
	// Background load keeps the gang busy while /clusterz is scraped.
	stop := make(chan struct{})
	var lwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		lwg.Add(1)
		go func() {
			defer lwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := predict(); err != nil {
						return
					}
				}
			}
		}()
	}
	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return string(b), err
	}
	prom, promErr := get("/clusterz?format=prom")
	close(stop)
	lwg.Wait()
	if promErr != nil {
		return fmt.Errorf("smoke: /clusterz scrape: %w", promErr)
	}
	for _, w := range workers {
		series := fmt.Sprintf("dist_worker_requests{worker=%q}", w.Addr())
		if !strings.Contains(prom, series) {
			return fmt.Errorf("smoke: /clusterz missing per-worker series %s", series)
		}
	}
	for _, want := range []string{"cluster_requests_consistent 1", "cluster_gang_occupancy", "cluster_straggler_p99"} {
		if !strings.Contains(prom, want) {
			return fmt.Errorf("smoke: mid-load /clusterz missing %q", want)
		}
	}

	// Post-drain the rollups must equal the per-worker registries.
	body, err := get("/clusterz?format=json")
	if err != nil {
		return fmt.Errorf("smoke: /clusterz json: %w", err)
	}
	var view struct {
		Workers map[string]trace.Snapshot `json:"workers"`
		Cluster trace.Snapshot            `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		return fmt.Errorf("smoke: /clusterz json decode: %w", err)
	}
	var sumReq int64
	for _, snap := range view.Workers {
		sumReq += snap.Counters["dist.worker.requests"]
	}
	total := int64(view.Cluster.Gauges["cluster.worker_requests_total"])
	dispatched := int64(view.Cluster.Gauges["cluster.router_dispatches_total"])
	if sumReq != total || total != dispatched || view.Cluster.Gauges["cluster.requests_consistent"] != 1 {
		return fmt.Errorf("smoke: rollup inconsistency: sum(worker requests)=%d, cluster total=%d, router dispatched=%d",
			sumReq, total, dispatched)
	}
	// ... and the halo plane holds nothing once the last response is out.
	if err := smokeExchangeDrained(base, len(workers)); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if _, ok := view.Cluster.Gauges["cluster.mem.exchange_bytes_total"]; !ok {
		return fmt.Errorf("smoke: /clusterz missing the cluster.mem.exchange_bytes_total rollup")
	}

	// Cross-process stitching: /tracez must carry one unified timeline —
	// the router row plus every shard's — that survives the report
	// layer's critical-path self-verification. The export lands just
	// after the HTTP response, so poll briefly.
	var sum report.DistSummary
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := get("/tracez")
		if err != nil {
			return fmt.Errorf("smoke: /tracez: %w", err)
		}
		var events []trace.Event
		if err := json.Unmarshal([]byte(raw), &events); err != nil {
			return fmt.Errorf("smoke: /tracez decode: %w", err)
		}
		if _, s, err := report.DistReport("smoke", events, ""); err == nil {
			sum = s
			if s.Processes == gang+1 && s.Verify() == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: no stitched %d-process trace on /tracez (last: %d processes, %d spans)",
				gang+1, sum.Processes, sum.Spans)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := rt.Metrics().Counter("dist.stitch_errors").Value(); n != 0 {
		return fmt.Errorf("smoke: dist.stitch_errors = %d, want 0", n)
	}

	// SLO burn-rate gauges ride /metricsz.
	metz, err := get("/metricsz")
	if err != nil {
		return fmt.Errorf("smoke: /metricsz: %w", err)
	}
	for _, want := range []string{"slo.latency_burn_5m", "slo.error_burn_1h"} {
		if !strings.Contains(metz, want) {
			return fmt.Errorf("smoke: /metricsz missing %q", want)
		}
	}
	fmt.Printf("observability ok: stitched request %s (%d processes, critical path %s), rollups consistent over %d workers\n",
		sum.Request, sum.Processes, report.HumanSeconds(sum.PlottedSeconds), len(view.Workers))
	return nil
}
