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
	"strings"
	"syscall"
	"time"

	"splitcnn/internal/models"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

// specFlags are the model-selection flags shared by `serve`, `worker`
// and `router`.
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
