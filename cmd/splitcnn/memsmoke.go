package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"time"

	"splitcnn/internal/distserve"
	"splitcnn/internal/memobs"
	"splitcnn/internal/models"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

// memSmoke is the CI `make mem-smoke` target: it exercises the memory
// observability plane end to end, race-enabled, in this one process.
//
// Phase 1 boots a compiled single-process server with default options,
// drives concurrent load through the real HTTP surface, and asserts
// that a 0.25 s /profilez capture under that load serves per-op CPU
// attribution and the instance's memory timeline, that a raw pprof
// download is a gzip profile, that once the load drains /profilez
// serves exactly the instance's timeline, and that /metricsz carries
// the runtime, arena and memory gauges (measured high water, planned
// slab) and the per-request footprint histograms.
//
// Phase 2 boots a two-worker loopback fleet whose workers expose debug
// HTTP listeners, drives load through the router, and asserts that a
// capture on each of the three processes' /profilez surfaces answers
// with per-op attribution and that the router's /clusterz federates
// the workers' runtime memory gauges into the cluster.mem.* rollups.
func memSmoke() error {
	if err := memSmokeServe(); err != nil {
		return fmt.Errorf("memsmoke serve: %w", err)
	}
	if err := memSmokeFleet(); err != nil {
		return fmt.Errorf("memsmoke fleet: %w", err)
	}
	fmt.Println("mem smoke ok")
	return nil
}

// profilezView mirrors the /profilez?format=json body.
type profilezView struct {
	Report    *memobs.Report        `json:"report"`
	Timelines []*memobs.MemTimeline `json:"timelines"`
}

func memSmokeServe() error {
	spec := serve.Spec{
		Name: "memsmoke", Arch: "alexnet",
		Model: models.Config{
			Classes: 10, InputC: 3, InputH: 64, InputW: 64,
			WidthDiv: 16, BatchNorm: true,
		},
		MaxBatch: 4,
	}
	reg, err := serve.NewRegistry(spec)
	if err != nil {
		return err
	}
	met := trace.NewMetrics()
	srv := serve.NewServer(reg, serve.Options{
		QueueDepth:     1024,
		RequestTimeout: 30 * time.Second,
		Metrics:        met,
	})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + bound.String()
	inst, _ := reg.Lookup("")

	stopLoad, waitLoad := startLoad(base, inst.ImageLen(), 4)
	err = profileUnderLoad(base)
	stopLoad()
	waitLoad()
	if err != nil {
		return err
	}
	// Once the load has drained, /profilez serves the instance's own
	// timeline: the static table of the last pass and its high waters.
	view, err := getProfile(base+"/profilez", "0.05")
	if err != nil {
		return err
	}
	if len(view.Timelines) != 1 {
		return fmt.Errorf("/profilez serves %d memory timelines after the load, want 1", len(view.Timelines))
	}
	if got, want := view.Timelines[0], inst.Timeline(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("/profilez serves timeline %+v, instance has %+v", got, want)
	}

	// Measured-memory gauge family and per-request footprint histograms.
	snap, err := scrapeSnapshot(base)
	if err != nil {
		return err
	}
	for _, g := range []string{"runtime.heap_alloc_bytes", "runtime.goroutines", "arena.high_water_bytes"} {
		if v := snap.Gauges[g]; v <= 0 {
			return fmt.Errorf("%s = %g, want > 0", g, v)
		}
	}
	if v := snap.Gauges["mem.measured_high_water_bytes"]; v <= 0 {
		return fmt.Errorf("mem.measured_high_water_bytes = %g, want > 0", v)
	}
	if v := snap.Gauges["mem.planned_slab_bytes"]; v <= 0 {
		return fmt.Errorf("mem.planned_slab_bytes = %g, want > 0", v)
	}
	if h, ok := snap.Histograms["serve.request_peak_bytes"]; !ok || h.Count == 0 {
		return fmt.Errorf("serve.request_peak_bytes histogram missing or empty")
	}
	if h, ok := snap.Histograms["serve.request_bytes_per_image"]; !ok || h.Count == 0 {
		return fmt.Errorf("serve.request_bytes_per_image histogram missing or empty")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func memSmokeFleet() error {
	spec := serve.Spec{
		Name: "memsmoke-dist", Arch: "vgg19",
		Model: models.Config{
			Classes: 10, InputC: 3, InputH: 32, InputW: 32,
			WidthDiv: 16, BatchNorm: true,
		},
		MaxBatch: 4,
	}
	var workers []*distserve.Worker
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := distserve.StartWorker("127.0.0.1:0", distserve.WorkerConfig{
			Spec: spec, MaxPods: 8,
			DebugAddr: "127.0.0.1:0",
		})
		if err != nil {
			return fmt.Errorf("spawn worker %d: %w", i, err)
		}
		defer w.Close()
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	rt, err := distserve.NewRouter(distserve.RouterOptions{
		Spec: spec, Workers: addrs,
		RequestTimeout: 30 * time.Second,
		Metrics:        trace.NewMetrics(),
	})
	if err != nil {
		return err
	}
	bound, err := rt.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + bound.String()
	imageLen := spec.Model.InputC * spec.Model.InputH * spec.Model.InputW

	// The router and every worker must answer a /profilez capture under
	// load with per-op attribution. The captures run one at a time: the
	// process has one CPU profiler, and a concurrent capture answers 409.
	surfaces := []string{base + "/profilez"}
	for i, w := range workers {
		if w.DebugAddr() == "" {
			return fmt.Errorf("worker %d has no debug listener", i)
		}
		surfaces = append(surfaces, "http://"+w.DebugAddr()+"/profilez")
	}
	stopLoad, waitLoad := startLoad(base, imageLen, 4)
	for _, url := range surfaces {
		if _, err = captureProfile(url); err != nil {
			err = fmt.Errorf("%s: %w", url, err)
			break
		}
	}
	stopLoad()
	waitLoad()
	if err != nil {
		return err
	}

	// Federation: the workers' runtime gauges, refreshed by each
	// Shard.Metrics call, must roll up into the cluster-wide memory
	// gauges on /clusterz.
	resp, err := http.Get(base + "/clusterz?format=json")
	if err != nil {
		return err
	}
	var view struct {
		Cluster trace.Snapshot `json:"cluster"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, g := range []string{
		"cluster.mem.heap_alloc_bytes_total",
		"cluster.mem.heap_alloc_bytes_max_worker",
		"cluster.mem.heap_sys_bytes_total",
	} {
		if v := view.Cluster.Gauges[g]; v <= 0 {
			return fmt.Errorf("clusterz rollup %s = %g, want > 0", g, v)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return rt.Shutdown(ctx)
}

// startLoad runs conc closed-loop clients posting zero-image predicts
// until the returned stop function is called; wait joins them.
func startLoad(base string, imageLen, conc int) (stop, wait func()) {
	body, _ := json.Marshal(serve.PredictRequest{Image: make([]float32, imageLen)})
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}()
	}
	var once sync.Once
	return func() { once.Do(func() { close(stopCh) }) }, wg.Wait
}

// profileUnderLoad checks a server's /profilez while load runs: a
// capture with per-op attribution and the instance's memory timeline,
// and a ?download=cpu window that is a gzip profile.
func profileUnderLoad(base string) error {
	view, err := captureProfile(base + "/profilez")
	if err != nil {
		return err
	}
	if len(view.Timelines) != 1 || len(view.Timelines[0].Samples) == 0 {
		return fmt.Errorf("/profilez serves %d memory timelines, want 1 with samples", len(view.Timelines))
	}
	resp, err := http.Get(base + "/profilez?download=cpu&seconds=0.25")
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		return fmt.Errorf("profilez cpu download: status %d, %d bytes, want a gzip profile", resp.StatusCode, len(raw))
	}
	return nil
}

// getProfile asks url for one capture window of the given seconds and
// decodes its JSON body.
func getProfile(url, seconds string) (*profilezView, error) {
	resp, err := http.Get(url + "?format=json&seconds=" + seconds)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("profilez status %d: %s", resp.StatusCode, body)
	}
	var view profilezView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, err
	}
	return &view, nil
}

// captureProfile takes one 0.25 s window from url, under the caller's
// load, and checks that it sampled CPU and attributed some to ops.
func captureProfile(url string) (*profilezView, error) {
	view, err := getProfile(url, "0.25")
	if err != nil {
		return nil, err
	}
	if view.Report == nil || view.Report.CPUSeconds <= 0 || len(view.Report.Ops) == 0 {
		return nil, fmt.Errorf("profilez window has no per-op attribution (report %+v)", view.Report)
	}
	return view, nil
}

// scrapeSnapshot fetches the target's /metricsz JSON snapshot.
func scrapeSnapshot(base string) (*trace.Snapshot, error) {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metricsz status %d", resp.StatusCode)
	}
	var snap trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
