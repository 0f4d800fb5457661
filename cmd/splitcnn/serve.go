package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"splitcnn/internal/distserve"
	"splitcnn/internal/models"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

// specFlags are the model-selection flags shared by `serve` and
// `loadtest -spawn`.
type specFlags struct {
	model    *string
	arch     *string
	widthDiv *int
	classes  *int
	inC      *int
	inH      *int
	inW      *int
	snapshot *string
	maxBatch *int
	tune     *bool
	tuneCach *string
}

func addSpecFlags(fs *flag.FlagSet) *specFlags {
	return &specFlags{
		model:    fs.String("model", "", "model description file (overrides -arch)"),
		arch:     fs.String("arch", "vgg19", "built-in architecture"),
		widthDiv: fs.Int("widthdiv", 16, "channel width divisor (with -arch)"),
		classes:  fs.Int("classes", 10, "classifier width (with -arch)"),
		inC:      fs.Int("inc", 3, "input channels (with -arch)"),
		inH:      fs.Int("inh", 32, "input height (with -arch)"),
		inW:      fs.Int("inw", 32, "input width (with -arch)"),
		snapshot: fs.String("snapshot", "", "weight snapshot to restore (from `splitcnn train -save`)"),
		maxBatch: fs.Int("maxbatch", 8, "program batch size = batching cap"),
		tune:     fs.Bool("tune", false, "autotune the convolution backends at load (see `splitcnn tune`)"),
		tuneCach: fs.String("tunecache", "", `autotune plan cache file (with -tune; "" = ~/.cache/splitcnn/autotune.json, "off" = no persistence)`),
	}
}

func (sf *specFlags) spec() (serve.Spec, error) {
	s := serve.Spec{
		Snapshot: *sf.snapshot,
		MaxBatch: *sf.maxBatch,
		Tune:     *sf.tune,
	}
	if s.Tune {
		path, err := tuneCachePath(*sf.tuneCach)
		if err != nil {
			return serve.Spec{}, err
		}
		s.TuneCache = path
	}
	if *sf.model != "" {
		s.ModelFile = *sf.model
		s.Name = filepath.Base(*sf.model)
	} else {
		s.Arch = *sf.arch
		s.Name = *sf.arch
		s.Model = models.Config{
			Classes: *sf.classes,
			InputC:  *sf.inC, InputH: *sf.inH, InputW: *sf.inW,
			WidthDiv: *sf.widthDiv, BatchNorm: true,
		}
	}
	return s, nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	sf := addSpecFlags(fs)
	maxDelay := fs.Duration("maxdelay", 2*time.Millisecond, "max wait for a batch to fill")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 4x maxbatch)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-request deadline (queue wait + execution)")
	logJSON := fs.Bool("logjson", false, "emit request/lifecycle logs as JSON instead of text")
	traceSample := fs.Float64("tracesample", 0, "fraction of requests recording wall-clock stage spans (0 disables /tracez)")
	traceOut := fs.String("traceout", "", "write the accumulated request trace (Chrome trace_event JSON) here on shutdown")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	runtimeEvery := fs.Duration("runtimemetrics", 10*time.Second, "runtime.*/arena.* gauge sampling interval (0 disables)")
	smoke := fs.Bool("smoke", false, "self-test: serve on a random port, answer one self-issued request, exit")
	memsmoke := fs.Bool("memsmoke", false, "self-test: exercise the memory observability plane (per-op /profilez attribution, measured-vs-planned invariant, cluster memory federation), exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *memsmoke {
		return memSmoke()
	}
	if *smoke {
		// The smoke run asserts on the observability surface, so it is
		// exercised regardless of flags.
		if *traceSample <= 0 {
			*traceSample = 1
		}
		*runtimeEvery = 50 * time.Millisecond
	}
	spec, err := sf.spec()
	if err != nil {
		return err
	}
	reg, err := serve.NewRegistry(spec)
	if err != nil {
		return err
	}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	srv := serve.NewServer(reg, serve.Options{
		MaxDelay:               *maxDelay,
		QueueDepth:             *queue,
		RequestTimeout:         *timeout,
		Metrics:                trace.NewMetrics(),
		Logger:                 slog.New(handler),
		TraceSample:            *traceSample,
		EnablePprof:            *pprofOn,
		RuntimeMetricsInterval: *runtimeEvery,
	})
	bind := *addr
	if *smoke {
		bind = "127.0.0.1:0" // never collide with a real deployment
	}
	bound, err := srv.Start(bind)
	if err != nil {
		return err
	}
	inst, _ := reg.Lookup("")
	fmt.Printf("serving %q (%dx%dx%d -> %d classes, max batch %d) on http://%s\n",
		inst.Name, inst.C, inst.H, inst.W, inst.Classes, inst.MaxBatch, bound)

	if *smoke {
		return serveSmoke(srv, "http://"+bound.String(), inst)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if *traceOut != "" && srv.Tracer() != nil {
		if err := srv.Tracer().WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("request trace: %s (%d sampled requests; open in chrome://tracing)\n",
			*traceOut, srv.Tracer().Sampled())
	}
	return nil
}

// serveSmoke exercises the live server end to end through its own HTTP
// surface — predict, healthz, metricsz — then drains. It is the CI
// `make serve-smoke` target, so it depends on nothing but this binary.
func serveSmoke(srv *serve.Server, base string, inst *serve.Instance) error {
	body, _ := json.Marshal(serve.PredictRequest{Image: make([]float32, inst.ImageLen())})
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("smoke: predict: %w", err)
	}
	var pr serve.PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("smoke: predict decode: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: predict status %d", resp.StatusCode)
	}
	if len(pr.Logits) != inst.Classes {
		return fmt.Errorf("smoke: got %d logits, want %d", len(pr.Logits), inst.Classes)
	}
	for _, path := range []string{"/healthz", "/metricsz", "/tracez"} {
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
	if n := srv.Metrics().Counter("serve.requests").Value(); n != 1 {
		return fmt.Errorf("smoke: serve.requests = %d, want 1", n)
	}

	// Build provenance: /healthz names the toolchain that built us.
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("smoke: healthz: %w", err)
	}
	var health struct {
		GoVersion string `json:"go_version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.GoVersion == "" {
		return fmt.Errorf("smoke: healthz lacks build info (err=%v)", err)
	}

	// Prometheus exposition: a text/plain Accept must negotiate the
	// 0.0.4 format with the latency histogram's cumulative buckets.
	req, _ := http.NewRequest(http.MethodGet, base+"/metricsz", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("smoke: prometheus scrape: %w", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return fmt.Errorf("smoke: prometheus content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE serve_latency_seconds histogram",
		`serve_latency_seconds_bucket{le="+Inf"} 1`,
		"serve_requests 1",
		"runtime_heap_alloc_bytes",
	} {
		if !strings.Contains(string(prom), want) {
			return fmt.Errorf("smoke: prometheus exposition missing %q", want)
		}
	}

	// Request tracing: the sampled request must have recorded at least
	// four distinct serving-stage spans sharing its request ID. The
	// handler finishes the span just after writing the response, so
	// allow it a moment to land.
	ok := false
	var events []trace.Event
	var byID map[string]map[string]bool
	for wait := 0; wait < 100 && !ok; wait++ {
		events = srv.Tracer().Trace().Events()
		byID = map[string]map[string]bool{}
		for _, e := range events {
			if id, _ := e.Args["request"].(string); id != "" {
				if byID[id] == nil {
					byID[id] = map[string]bool{}
				}
				byID[id][e.Cat] = true
			}
		}
		for _, stages := range byID {
			if len(stages) >= 4 {
				ok = true
			}
		}
		if !ok {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !ok {
		return fmt.Errorf("smoke: no request with >= 4 trace stages (got %d events across %d requests)",
			len(events), len(byID))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("smoke: shutdown: %w", err)
	}
	fmt.Printf("serve smoke ok: argmax %d, batch %d, latency %d us\n",
		pr.Argmax, pr.BatchSize, pr.LatencyUs)
	return nil
}

func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "server address (host:port)")
	targetURL := fs.String("target", "", "base URL of the endpoint to test, e.g. http://10.0.0.2:8080 (overrides -addr; scheme optional)")
	spawn := fs.Bool("spawn", false, "serve in-process on a random port and loadtest that")
	spawnWorkers := fs.Int("spawnworkers", 0, "spawn a distributed fleet (router over N in-process shard workers) and loadtest that")
	sf := addSpecFlags(fs)
	maxDelay := fs.Duration("maxdelay", 2*time.Millisecond, "batching delay (with -spawn)")
	conc := fs.Int("c", 8, "concurrent closed-loop clients")
	total := fs.Int("n", 256, "total requests")
	benchName := fs.String("bench", "ServeLoadtest", "name for the emitted Benchmark result line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	target := *addr
	if *spawnWorkers > 0 {
		spec, err := sf.spec()
		if err != nil {
			return err
		}
		var addrs []string
		for i := 0; i < *spawnWorkers; i++ {
			w, err := distserve.StartWorker("127.0.0.1:0", distserve.WorkerConfig{
				Spec: spec, MaxPods: 2 * *conc, // loadtest measures latency, not admission control
			})
			if err != nil {
				return fmt.Errorf("loadtest: spawn worker %d: %w", i, err)
			}
			defer w.Close()
			addrs = append(addrs, w.Addr())
		}
		rt, err := distserve.NewRouter(distserve.RouterOptions{
			Spec: spec, Workers: addrs,
			TailExecutors:          *conc,
			RequestTimeout:         60 * time.Second,
			RuntimeMetricsInterval: 100 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		bound, err := rt.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		target = bound.String()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rt.Shutdown(ctx)
		}()
	} else if *spawn {
		spec, err := sf.spec()
		if err != nil {
			return err
		}
		reg, err := serve.NewRegistry(spec)
		if err != nil {
			return err
		}
		srv := serve.NewServer(reg, serve.Options{
			MaxDelay:               *maxDelay,
			QueueDepth:             2 * *total, // loadtest measures latency, not admission control
			RequestTimeout:         60 * time.Second,
			RuntimeMetricsInterval: 100 * time.Millisecond,
		})
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		target = bound.String()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}
	base := "http://" + target
	if *targetURL != "" {
		if *spawn || *spawnWorkers > 0 {
			return fmt.Errorf("loadtest: -target is mutually exclusive with -spawn/-spawnworkers")
		}
		base = *targetURL
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		base = strings.TrimSuffix(base, "/")
	}

	// Discover the default model's input geometry from the server.
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		return fmt.Errorf("loadtest: %s unreachable: %w", base, err)
	}
	var infos []serve.ModelInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil || len(infos) == 0 {
		return fmt.Errorf("loadtest: bad /v1/models response (err=%v)", err)
	}
	info := infos[0]
	imageLen := info.Input[0] * info.Input[1] * info.Input[2]
	body, _ := json.Marshal(serve.PredictRequest{
		Model: info.Name, Image: make([]float32, imageLen),
	})

	type stats struct {
		lat     []time.Duration
		batches int64
		errs    int
	}
	per := make([]stats, *conc)

	// Memory footprint of the run, scraped from the target's own
	// /metricsz: peak heap is polled while the load runs (it rises and
	// falls with GC), the arena high water is monotone and read once at
	// the end.
	var peakHeap float64
	memStop := make(chan struct{})
	memDone := make(chan struct{})
	go func() {
		defer close(memDone)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-memStop:
				return
			case <-t.C:
				if g, err := scrapeGauges(base); err == nil {
					if v := g["runtime.heap_alloc_bytes"]; v > peakHeap {
						peakHeap = v
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		n := *total / *conc
		if w < *total%*conc {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			st := &per[w]
			for i := 0; i < n; i++ {
				t0 := time.Now()
				resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					st.errs++
					continue
				}
				var pr serve.PredictResponse
				derr := json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil {
					st.errs++
					continue
				}
				st.lat = append(st.lat, time.Since(t0))
				st.batches += int64(pr.BatchSize)
			}
		}(w, n)
	}
	wg.Wait()
	wall := time.Since(start)
	close(memStop)
	<-memDone
	var arenaHW float64
	if g, err := scrapeGauges(base); err == nil {
		if v := g["runtime.heap_alloc_bytes"]; v > peakHeap {
			peakHeap = v
		}
		arenaHW = g["arena.high_water_bytes"]
	}

	var lat []time.Duration
	var batches int64
	errs := 0
	for i := range per {
		lat = append(lat, per[i].lat...)
		batches += per[i].batches
		errs += per[i].errs
	}
	if len(lat) == 0 {
		return fmt.Errorf("loadtest: all %d requests failed", *total)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	mean := sum / time.Duration(len(lat))
	p50 := lat[len(lat)/2]
	p99 := lat[len(lat)*99/100]
	throughput := float64(len(lat)) / wall.Seconds()
	avgBatch := float64(batches) / float64(len(lat))

	fmt.Printf("loadtest %s: %d ok, %d errors, %d clients, %.2fs wall\n",
		base, len(lat), errs, *conc, wall.Seconds())
	fmt.Printf("throughput %.1f img/s, latency mean %.2fms p50 %.2fms p99 %.2fms, mean batch %.2f\n",
		throughput, ms(mean), ms(p50), ms(p99), avgBatch)
	// When the target is a distributed router, record the fleet shape in
	// the benchmark metadata: worker count from its /v1/workers and the
	// gang size (mean shards answering per request — the response
	// BatchSize on the distributed path). Single-process servers have no
	// /v1/workers and emit the classic line.
	fleet := ""
	if resp, err := http.Get(base + "/v1/workers"); err == nil {
		var ws []json.RawMessage
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ws) == nil && len(ws) > 0 {
			fleet = fmt.Sprintf(" %8d workers %8.2f gang-size", len(ws), avgBatch)
		}
		resp.Body.Close()
	}
	// Memory metrics ride on the same line when the target's runtime
	// sampler exposed them, so the committed BENCH_serve.json trajectory
	// (and the benchdiff gate) covers footprint as well as latency.
	mem := ""
	if peakHeap > 0 {
		mem = fmt.Sprintf(" %10.2f peak-heap-MiB", peakHeap/(1<<20))
	}
	if arenaHW > 0 {
		mem += fmt.Sprintf(" %10.2f arena-hw-MiB", arenaHW/(1<<20))
	}
	// A `go test -bench`-shaped line, so the run can be appended to the
	// benchmark log: splitcnn loadtest ... | benchjson -o BENCH_serve.json
	fmt.Printf("Benchmark%s %8d %12.0f ns/op %12.1f img/s %10.3f p99-ms %8.2f avg-batch%s%s\n",
		*benchName, len(lat), float64(mean.Nanoseconds()), throughput, ms(p99), avgBatch, fleet, mem)
	if errs > 0 {
		return fmt.Errorf("loadtest: %d of %d requests failed", errs, *total)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrapeGauges fetches the target's /metricsz JSON and returns its
// gauge map.
func scrapeGauges(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metricsz status %d", resp.StatusCode)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return snap.Gauges, nil
}
