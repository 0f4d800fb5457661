package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"splitcnn/internal/debugz"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

// startObsServer builds a one-model server with the given options and
// returns its base URL plus a shutdown func.
func startObsServer(t *testing.T, opts serve.Options) (*serve.Server, string, int) {
	t.Helper()
	snap := writeFixtureSnapshot(t)
	reg, err := serve.NewRegistry(serve.Spec{
		Name: "tiny", ModelText: modelText, Snapshot: snap, MaxBatch: 8,
	})
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	srv := serve.NewServer(reg, opts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	inst, _ := reg.Lookup("")
	return srv, "http://" + addr.String(), inst.ImageLen()
}

func postPredict(t *testing.T, base string, img []float32) serve.PredictResponse {
	t.Helper()
	body, _ := json.Marshal(serve.PredictRequest{Model: "tiny", Image: img})
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("predict decode: %v", err)
	}
	return pr
}

// TestServeRequestTracing is the tentpole acceptance test: with sampling
// at 1.0, every request must produce admission/queue/assemble/forward/
// respond stage spans sharing one request ID, and coalesced requests'
// forward spans must link the batch membership through their args.
func TestServeRequestTracing(t *testing.T) {
	srv, base, imageLen := startObsServer(t, serve.Options{
		RequestTimeout: 30 * time.Second,
		Debug:          debugz.Options{TraceSample: 1.0},
	})

	const n = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			postPredict(t, base, testImage(i, imageLen))
		}(i)
	}
	close(start)
	wg.Wait()

	// /tracez serves the accumulated trace as a Chrome trace_event array.
	// The last Finish may still be in flight after the response was
	// written, so poll briefly for all spans to land.
	wantEvents := 5 * n // 5 stages per sampled request
	var events []trace.Event
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(base + "/tracez")
		if err != nil {
			t.Fatalf("tracez: %v", err)
		}
		events = events[:0]
		if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
			t.Fatalf("tracez decode: %v", err)
		}
		resp.Body.Close()
		if len(events) >= wantEvents || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Tracer().Sampled(); got != n {
		t.Errorf("sampled = %d, want %d", got, n)
	}
	if len(events) != wantEvents {
		t.Fatalf("trace has %d events, want %d (5 stages x %d requests)", len(events), wantEvents, n)
	}

	// Group stages by request ID: every request must carry all five
	// serving stages (well over the >= 4 acceptance floor).
	stages := make(map[string]map[string]bool)
	for _, e := range events {
		if e.Ph != "X" {
			t.Fatalf("event %q has ph %q, want complete event X", e.Name, e.Ph)
		}
		if e.Dur < 0 {
			t.Errorf("event %q has negative duration %v", e.Name, e.Dur)
		}
		id, _ := e.Args["request"].(string)
		if id == "" {
			t.Fatalf("event %q lacks a request arg: %v", e.Name, e.Args)
		}
		if stages[id] == nil {
			stages[id] = make(map[string]bool)
		}
		stages[id][e.Cat] = true
	}
	if len(stages) != n {
		t.Fatalf("trace covers %d request IDs, want %d", len(stages), n)
	}
	for id, got := range stages {
		for _, stage := range []string{"admit", "queue", "assemble", "forward", "respond"} {
			if !got[stage] {
				t.Errorf("request %s missing stage span %q (has %v)", id, stage, got)
			}
		}
	}

	// Forward spans link the coalesced batch: batch number, batch size,
	// and the member request IDs.
	forwards := 0
	for _, e := range events {
		if e.Cat != "forward" {
			continue
		}
		forwards++
		if _, ok := e.Args["batch"]; !ok {
			t.Errorf("forward span %v lacks batch arg", e.Args)
		}
		size, _ := e.Args["batch_size"].(float64)
		members, _ := e.Args["requests"].([]any)
		if int(size) != len(members) || size < 1 {
			t.Errorf("forward span batch_size %v != %d linked requests", size, len(members))
		}
		id := e.Args["request"].(string)
		found := false
		for _, m := range members {
			if m == id {
				found = true
			}
		}
		if !found {
			t.Errorf("forward span for %s does not list itself in requests %v", id, members)
		}
	}
	if forwards != n {
		t.Errorf("forward spans = %d, want %d", forwards, n)
	}
}

// TestServeTracingDisabled checks the zero-sample path: no tracer, nil
// span contexts throughout, and /tracez explains itself with a 404.
func TestServeTracingDisabled(t *testing.T) {
	srv, base, imageLen := startObsServer(t, serve.Options{RequestTimeout: 10 * time.Second})
	if srv.Tracer() != nil {
		t.Fatal("tracer should be nil at sample rate 0")
	}
	postPredict(t, base, testImage(0, imageLen))
	resp, err := http.Get(base + "/tracez")
	if err != nil {
		t.Fatalf("tracez: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tracez status = %d, want 404 when tracing is off", resp.StatusCode)
	}
}

// TestServeMetricszNegotiation checks all three /metricsz formats: JSON
// default, Prometheus exposition via Accept or ?format=prom, legacy text.
func TestServeMetricszNegotiation(t *testing.T) {
	_, base, imageLen := startObsServer(t, serve.Options{RequestTimeout: 10 * time.Second})
	postPredict(t, base, testImage(0, imageLen))

	get := func(url, accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("Content-Type")
	}

	// Default: JSON, for existing scrapers.
	body, ct := get(base+"/metricsz", "")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default content type = %q", ct)
	}
	var jm struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &jm); err != nil {
		t.Fatalf("default JSON: %v", err)
	}
	if jm.Counters["serve.requests"] != 1 {
		t.Errorf("JSON serve.requests = %d, want 1", jm.Counters["serve.requests"])
	}

	// Prometheus exposition via Accept header (what a scraper sends).
	for _, tc := range []struct{ url, accept string }{
		{base + "/metricsz", "text/plain"},
		{base + "/metricsz?format=prom", ""},
	} {
		body, ct = get(tc.url, tc.accept)
		if !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("%s accept=%q: content type = %q, want prometheus 0.0.4", tc.url, tc.accept, ct)
		}
		for _, want := range []string{
			"# TYPE serve_requests counter",
			"serve_requests 1",
			"# TYPE serve_latency_seconds histogram",
			`serve_latency_seconds_bucket{le="+Inf"} 1`,
			"serve_latency_seconds_count 1",
			"# TYPE serve_latency_p99_seconds gauge",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s accept=%q: exposition missing %q", tc.url, tc.accept, want)
			}
		}
	}

	// Legacy plain text is still reachable explicitly.
	body, _ = get(base+"/metricsz?format=text", "")
	if !strings.Contains(body, "counter serve.requests 1") {
		t.Errorf("legacy text missing counter line:\n%s", body)
	}
}

// TestServeMetricszConcurrentScrapes hammers the Prometheus endpoint
// while traffic flows; every scrape must be internally consistent
// (+Inf bucket == _count). Run with -race this also proves the
// exposition path is data-race free against live instruments.
func TestServeMetricszConcurrentScrapes(t *testing.T) {
	_, base, imageLen := startObsServer(t, serve.Options{
		RequestTimeout: 10 * time.Second,
		Debug:          debugz.Options{TraceSample: 0.5},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					postPredict(t, base, testImage(w*1000+i, imageLen))
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		req, _ := http.NewRequest(http.MethodGet, base+"/metricsz", nil)
		req.Header.Set("Accept", "text/plain")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var inf, count int64 = -1, -1
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, `serve_latency_seconds_bucket{le="+Inf"} `); ok {
				fmt.Sscan(rest, &inf)
			}
			if rest, ok := strings.CutPrefix(line, "serve_latency_seconds_count "); ok {
				fmt.Sscan(rest, &count)
			}
		}
		if inf != count {
			t.Fatalf("scrape %d torn: +Inf bucket %d != count %d", i, inf, count)
		}
	}
	close(stop)
	wg.Wait()
}

// TestServeHealthzBuildInfo checks that /healthz reports the binary's
// build provenance and uptime alongside liveness.
func TestServeHealthzBuildInfo(t *testing.T) {
	_, base, _ := startObsServer(t, serve.Options{RequestTimeout: 10 * time.Second})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	var h struct {
		Status        string  `json:"status"`
		GoVersion     string  `json:"go_version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.GoVersion == "" {
		t.Error("healthz lacks go_version build info")
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
}

// TestServePprofGate checks that /debug/pprof is absent by default and
// mounted when EnablePprof is set.
func TestServePprofGate(t *testing.T) {
	_, off, _ := startObsServer(t, serve.Options{RequestTimeout: 10 * time.Second})
	resp, err := http.Get(off + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof off: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable without EnablePprof")
	}

	_, on, _ := startObsServer(t, serve.Options{RequestTimeout: 10 * time.Second, EnablePprof: true})
	resp, err = http.Get(on + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof on: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d with EnablePprof", resp.StatusCode)
	}
}

// scrapeGauges reads the gauges of one /metricsz scrape.
func scrapeGauges(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	defer resp.Body.Close()
	var snap trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metricsz decode: %v", err)
	}
	return snap.Gauges
}

// TestServeRuntimeMetrics checks that a default server's /metricsz
// computes the runtime.*, aggregate arena.* and mem.* gauges at scrape.
func TestServeRuntimeMetrics(t *testing.T) {
	_, base, _ := startObsServer(t, serve.Options{})
	g := scrapeGauges(t, base)
	for _, name := range []string{
		"runtime.heap_alloc_bytes", "runtime.goroutines",
		// The registry warmed each instance's arena with a full forward,
		// so the aggregate high-water mark must be visible.
		"arena.high_water_bytes",
		"mem.measured_high_water_bytes", "mem.planned_slab_bytes",
	} {
		if g[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, g[name])
		}
	}
}

// TestServeMemGaugesSumInstances: with two models, each mem.* gauge is
// the sum over the instances' timelines, not the last one's value.
func TestServeMemGaugesSumInstances(t *testing.T) {
	snap := writeFixtureSnapshot(t)
	reg, err := serve.NewRegistry(
		serve.Spec{Name: "a", ModelText: modelText, Snapshot: snap, MaxBatch: 8},
		serve.Spec{Name: "b", ModelText: modelText, Snapshot: snap, MaxBatch: 2},
	)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	srv := serve.NewServer(reg, serve.Options{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Shutdown(context.Background())
	var high, slab, scratch float64
	for _, name := range []string{"a", "b"} {
		inst, _ := reg.Lookup(name)
		tl := inst.Timeline()
		high += float64(tl.MeasuredHighWater)
		slab += float64(tl.PlannedSlabBytes)
		scratch += float64(tl.ScratchHighWater)
	}
	a, _ := reg.Lookup("a")
	b, _ := reg.Lookup("b")
	if a.Timeline().PlannedSlabBytes == b.Timeline().PlannedSlabBytes {
		t.Fatal("the two models plan the same slab; the sum would not tell them apart")
	}
	g := scrapeGauges(t, "http://"+addr.String())
	for name, want := range map[string]float64{
		"mem.measured_high_water_bytes": high,
		"mem.planned_slab_bytes":        slab,
		"mem.scratch_high_water_bytes":  scratch,
	} {
		if g[name] != want {
			t.Errorf("%s = %v, want the instances' sum %v", name, g[name], want)
		}
	}
}
