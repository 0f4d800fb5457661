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

	"splitcnn/internal/debugz"
	"splitcnn/internal/distserve"
	"splitcnn/internal/memobs"
	"splitcnn/internal/models"
	"splitcnn/internal/serve"
	"splitcnn/internal/trace"
)

// memSmoke is the CI `make mem-smoke` target: it exercises the memory
// observability plane end to end, race-enabled, in this one process.
//
// Phase 1 boots a compiled single-process server with fast profiler
// windows, drives concurrent load through the real HTTP surface, and
// asserts that /profilez serves per-op CPU attribution, a raw pprof
// download and, once the load drains, exactly the instance's memory
// timeline, and that /metricsz carries the memory gauges (measured high
// water, planned slab) and the per-request footprint histograms.
//
// Phase 2 boots a two-worker loopback fleet whose workers expose debug
// HTTP listeners, drives load through the router, and asserts that all
// three processes' /profilez surfaces answer with per-op attribution
// and that the router's /clusterz federates the workers' runtime
// memory gauges into the cluster.mem.* rollups.
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

// memSmokeDebug is every smoke process's debug surface: fast runtime
// samples and short, frequent profiler windows.
var memSmokeDebug = debugz.Options{
	RuntimeMetricsInterval: 50 * time.Millisecond,
	ProfileWindow:          250 * time.Millisecond,
	ProfileEvery:           300 * time.Millisecond,
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
		Debug:          memSmokeDebug,
	})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + bound.String()
	inst, _ := reg.Lookup("")

	stopLoad, waitLoad := startLoad(base, inst.ImageLen(), 4)
	_, err = awaitProfile(base+"/profilez", 30*time.Second)
	stopLoad()
	waitLoad()
	if err != nil {
		return err
	}
	// Once the load has drained, /profilez serves the instance's own
	// timeline: the static table of the last pass and its high waters.
	resp, err := http.Get(base + "/profilez?format=json")
	if err != nil {
		return err
	}
	var view profilezView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if len(view.Timelines) != 1 || len(view.Timelines[0].Samples) == 0 {
		return fmt.Errorf("/profilez serves %d memory timelines, want 1 with samples", len(view.Timelines))
	}
	if got, want := view.Timelines[0], inst.Timeline(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("/profilez serves timeline %+v, instance has %+v", got, want)
	}

	// Raw pprof download of the captured window.
	resp, err = http.Get(base + "/profilez?download=cpu")
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(raw) == 0 {
		return fmt.Errorf("profilez cpu download: status %d, %d bytes", resp.StatusCode, len(raw))
	}

	// Measured-memory gauge family and per-request footprint histograms.
	snap, err := scrapeSnapshot(base)
	if err != nil {
		return err
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
			Debug:     memSmokeDebug,
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
		Debug:          memSmokeDebug,
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

	stopLoad, waitLoad := startLoad(base, imageLen, 4)
	// The router and every worker must answer /profilez with a captured
	// window; the profilers share one process-global CPU profiler and
	// skip contended windows, so poll each surface generously.
	surfaces := []string{base + "/profilez"}
	for i, w := range workers {
		if w.DebugAddr() == "" {
			return fmt.Errorf("worker %d has no debug listener", i)
		}
		surfaces = append(surfaces, "http://"+w.DebugAddr()+"/profilez")
	}
	for _, url := range surfaces {
		if _, err := awaitProfile(url, 60*time.Second); err != nil {
			stopLoad()
			waitLoad()
			return fmt.Errorf("%s: %w", url, err)
		}
	}
	stopLoad()
	waitLoad()

	// Federation: the workers' runtime samplers must roll up into the
	// cluster-wide memory gauges on /clusterz.
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

// awaitProfile polls url?format=json until a profile window with
// sampled CPU and at least one per-op attribution row has landed.
func awaitProfile(url string, timeout time.Duration) (*profilezView, error) {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "?format=json")
		if err != nil {
			last = err.Error()
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var view profilezView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			last = fmt.Sprintf("status %d, err %v", resp.StatusCode, err)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if view.Report != nil && view.Report.CPUSeconds > 0 && len(view.Report.Ops) > 0 {
			return &view, nil
		}
		last = "no completed profile window yet"
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("profilez never produced per-op attribution (%s)", last)
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
