package distserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"testing"
	"time"

	"splitcnn/internal/serve"
)

// startFleet spawns n loopback workers plus a router fronting them and
// returns the router's base URL with a cleanup-registered shutdown.
func startFleet(t *testing.T, spec serve.Spec, n int, wcfg WorkerConfig, ropts RouterOptions) (*Router, []*Worker, string) {
	t.Helper()
	wcfg.Spec = spec
	var workers []*Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := StartWorker("127.0.0.1:0", wcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	ropts.Spec = spec
	ropts.Workers = addrs
	rt, err := NewRouter(ropts)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, workers, "http://" + addr.String()
}

func postPredict(t *testing.T, base string, req serve.PredictRequest) (int, serve.PredictResponse, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, serve.PredictResponse{}, e.Error
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, pr, ""
}

// referenceLogits runs the same spec through the single-process serving
// path (serve.Load + Instance.Run) — the bit-identity baseline.
func referenceLogits(t *testing.T, spec serve.Spec, img []float32) []float32 {
	t.Helper()
	inst, err := serve.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := inst.Run([][]float32{img})
	if err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), out[0]...)
}

// TestRouterBitIdenticalAllArchitectures is the headline acceptance
// check: for every bundled architecture, a router over multiple shard
// workers returns logits bit-identical to the single-process server.
func TestRouterBitIdenticalAllArchitectures(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, arch := range []string{"alexnet", "vgg16", "vgg19", "resnet18", "resnet50"} {
		t.Run(arch, func(t *testing.T) {
			spec := testSpec(arch)
			img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
			for i := range img {
				img[i] = rng.Float32()
			}
			want := referenceLogits(t, spec, img)
			_, _, base := startFleet(t, spec, 3, WorkerConfig{}, RouterOptions{
				RequestTimeout: 20 * time.Second,
			})
			status, pr, msg := postPredict(t, base, serve.PredictRequest{Model: arch, Image: img})
			if status != http.StatusOK {
				t.Fatalf("predict: %d %s", status, msg)
			}
			if !bitIdentical(pr.Logits, want) {
				t.Fatalf("router logits diverge from single-process serve (max |Δ| %g, shards %d)",
					maxAbsDiff(pr.Logits, want), pr.BatchSize)
			}
			if pr.BatchSize < 2 {
				t.Fatalf("request answered by %d shards, want ≥2", pr.BatchSize)
			}
			if pr.Argmax != argmax32(want) {
				t.Fatalf("argmax %d, want %d", pr.Argmax, argmax32(want))
			}
		})
	}
}

func argmax32(v []float32) int {
	a := 0
	for i := range v {
		if v[i] > v[a] {
			a = i
		}
	}
	return a
}

// TestRouterSurvivesWorkerCrash kills one gang member mid-request: the
// router must eject it, retry the whole gang on the survivors, still
// return bit-identical logits within the deadline — and re-admit the
// worker once it comes back on the same address.
func TestRouterSurvivesWorkerCrash(t *testing.T) {
	spec := testSpec("vgg16")
	rng := rand.New(rand.NewSource(31))
	img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
	for i := range img {
		img[i] = rng.Float32()
	}
	want := referenceLogits(t, spec, img)

	rt, workers, base := startFleet(t, spec, 3,
		WorkerConfig{StageDelay: 5 * time.Millisecond}, // ~37 stages ≈ 190ms/attempt
		RouterOptions{RequestTimeout: 30 * time.Second, HealthInterval: 100 * time.Millisecond})

	done := make(chan struct{})
	var status int
	var pr serve.PredictResponse
	var msg string
	go func() {
		defer close(done)
		status, pr, msg = postPredict(t, base, serve.PredictRequest{Image: img})
	}()
	time.Sleep(60 * time.Millisecond) // mid-evaluation for every plausible schedule
	victim := workers[0]
	victimAddr := victim.Addr()
	victim.Close()
	<-done
	if status != http.StatusOK {
		t.Fatalf("predict during crash: %d %s", status, msg)
	}
	if !bitIdentical(pr.Logits, want) {
		t.Fatalf("post-crash logits diverge (max |Δ| %g)", maxAbsDiff(pr.Logits, want))
	}
	if got := rt.Metrics().Counter("dist.retries").Value(); got < 1 {
		t.Fatalf("dist.retries = %d, want ≥1 (request must have been re-dispatched)", got)
	}
	if got := rt.Metrics().Counter("dist.ejections").Value(); got < 1 {
		t.Fatalf("dist.ejections = %d, want ≥1", got)
	}

	// The fleet keeps serving with the survivors.
	status, pr, msg = postPredict(t, base, serve.PredictRequest{Image: img})
	if status != http.StatusOK || !bitIdentical(pr.Logits, want) {
		t.Fatalf("post-crash steady state: %d %s", status, msg)
	}

	// Restart a worker on the dead one's address: the health loop must
	// re-admit it.
	w2, err := StartWorker(victimAddr, WorkerConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w2.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Metrics().Counter("dist.readmissions").Value() >= 1 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := rt.Metrics().Counter("dist.readmissions").Value(); got < 1 {
		t.Fatalf("worker restarted on %s but never re-admitted", victimAddr)
	}
}

// TestRouterCapacity429: when every worker's pods are reserved by an
// in-flight request, the next request is refused with 429, mirroring
// the single-process server's admission control.
func TestRouterCapacity429(t *testing.T) {
	spec := testSpec("resnet18") // 3 stages — short critical section
	rng := rand.New(rand.NewSource(43))
	img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
	for i := range img {
		img[i] = rng.Float32()
	}
	_, _, base := startFleet(t, spec, 2,
		WorkerConfig{MaxPods: 1, StageDelay: 150 * time.Millisecond},
		RouterOptions{RequestTimeout: 10 * time.Second, Retries: 1})

	first := make(chan int, 1)
	go func() {
		s, _, _ := postPredict(t, base, serve.PredictRequest{Image: img})
		first <- s
	}()
	time.Sleep(100 * time.Millisecond) // first request holds both workers' pods
	status, _, msg := postPredict(t, base, serve.PredictRequest{Image: img})
	if status != http.StatusTooManyRequests {
		t.Fatalf("second concurrent request: %d %q, want 429", status, msg)
	}
	if s := <-first; s != http.StatusOK {
		t.Fatalf("first request: %d, want 200", s)
	}
}

// TestRouterIntrospection covers the read-only surfaces: /healthz,
// /v1/workers, /v1/models, /metricsz and /tracez.
func TestRouterIntrospection(t *testing.T) {
	spec := testSpec("resnet18")
	rt, _, base := startFleet(t, spec, 2, WorkerConfig{},
		RouterOptions{RequestTimeout: 10 * time.Second, TraceSample: 1})

	img := make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
	if status, _, msg := postPredict(t, base, serve.PredictRequest{Image: img}); status != http.StatusOK {
		t.Fatalf("predict: %d %s", status, msg)
	}

	get := func(path string, want int) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %d (%s), want %d", path, resp.StatusCode, buf.String(), want)
		}
		return buf.Bytes()
	}

	var hz struct {
		Status  string `json:"status"`
		Healthy int    `json:"healthy_workers"`
	}
	if err := json.Unmarshal(get("/healthz", http.StatusOK), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Healthy != 2 {
		t.Fatalf("healthz: %+v", hz)
	}

	var ws []WorkerInfo
	if err := json.Unmarshal(get("/v1/workers", http.StatusOK), &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || !ws[0].Healthy || !ws[1].Healthy {
		t.Fatalf("workers: %+v", ws)
	}

	var ms []serve.ModelInfo
	if err := json.Unmarshal(get("/v1/models", http.StatusOK), &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Classes != 10 {
		t.Fatalf("models: %+v", ms)
	}

	var mz map[string]json.RawMessage
	if err := json.Unmarshal(get("/metricsz", http.StatusOK), &mz); err != nil {
		t.Fatal(err)
	}

	var spans []map[string]any
	if err := json.Unmarshal(get("/tracez", http.StatusOK), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("tracez: no spans despite TraceSample=1")
	}
	if rt.Tracer().Sampled() < 1 {
		t.Fatal("tracer sampled nothing")
	}
}

// TestWorkerRejectsForeignModel: a worker must refuse gangs whose plan
// signature differs from its own before touching the halo exchange.
func TestWorkerRejectsForeignModel(t *testing.T) {
	w, err := StartWorker("127.0.0.1:0", WorkerConfig{Spec: testSpec("resnet18")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	rt, err := NewRouter(RouterOptions{Spec: testSpec("vgg16"), Workers: []string{w.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	// The synchronous first probe already saw the mismatch; after
	// FailThreshold probes the worker is ejected and never dispatched.
	var hz struct {
		Status string `json:"status"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr.(*net.TCPAddr)))
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if hz.Status == "no healthy workers" {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("router never ejected the foreign-model worker (healthz %q)", hz.Status)
}

// TestRouterBodyContract holds the router to the single-process
// server's /v1/predict error contract: it decodes through the same
// serve.DecodePredict, so the malformed bodies of serve's e2e table are
// refused with the same statuses and byte-identical error bodies, a
// wrong image length is 400, and the body bound is MaxPredictBody of
// the plan's C·H·W.
func TestRouterBodyContract(t *testing.T) {
	spec := testSpec("resnet18")
	_, _, base := startFleet(t, spec, 2, WorkerConfig{}, RouterOptions{RequestTimeout: 10 * time.Second})

	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(got)
	}
	// The rows of serve's malformedBodies, and a wrong image length.
	for _, tc := range []struct{ name, body, want string }{
		{"not JSON", `hello`,
			`{"error":"bad JSON: invalid character 'h' looking for beginning of value"}`},
		{"truncated array", `{"image":[1,2,`,
			`{"error":"bad JSON: unexpected EOF"}`},
		{"string element", `{"image":[1,"2",3]}`,
			`{"error":"bad JSON: json: cannot unmarshal string into Go struct field PredictRequest.image of type float32"}`},
		{"float32 overflow", `{"image":[1e39]}`,
			`{"error":"bad JSON: json: cannot unmarshal number 1e39 into Go struct field PredictRequest.image of type float32"}`},
		{"fractional timeout", `{"image":[1],"timeout_ms":1.5}`,
			`{"error":"bad JSON: json: cannot unmarshal number 1.5 into Go struct field PredictRequest.timeout_ms of type int"}`},
		{"empty body", ``,
			`{"error":"bad JSON: EOF"}`},
		{"wrong image length", `{"image":[1,2,3]}`,
			`{"error":"image has 3 values, model resnet18 wants 3072 (3x32x32)"}`},
	} {
		if code, got := post([]byte(tc.body)); code != http.StatusBadRequest || got != tc.want+"\n" {
			t.Errorf("%s: %d %q, want 400 %q", tc.name, code, got, tc.want+"\n")
		}
	}

	// A model the router does not serve is serve's 404, checked before
	// the image; naming the router's own model is the empty name.
	if code, got := post([]byte(`{"model":"nope","image":[1]}`)); code != http.StatusNotFound ||
		got != `{"error":"unknown model \"nope\" (have resnet18)"}`+"\n" {
		t.Errorf("unknown model: %d %q, want 404", code, got)
	}
	if code, got := post([]byte(`{"model":"resnet18","image":[1,2,3]}`)); code != http.StatusBadRequest ||
		got != `{"error":"image has 3 values, model resnet18 wants 3072 (3x32x32)"}`+"\n" {
		t.Errorf("own model, wrong length: %d %q, want 400", code, got)
	}

	imageLen := 3 * spec.Model.InputH * spec.Model.InputW
	limit := serve.MaxPredictBody(imageLen)
	body, _ := json.Marshal(serve.PredictRequest{Image: make([]float32, imageLen)})
	pad := func(n int64) []byte { return append(bytes.Repeat([]byte(" "), int(n)-len(body)), body...) }
	if code, got := post(pad(limit)); code != http.StatusOK {
		t.Errorf("body of %d bytes (the bound): %d %s, want 200", limit, code, got)
	}
	want := fmt.Sprintf(`{"error":"request body exceeds %d bytes"}`+"\n", limit)
	if code, got := post(pad(limit + 1)); code != http.StatusRequestEntityTooLarge || got != want {
		t.Errorf("body of %d bytes: %d %q, want 413 %q", limit+1, code, got, want)
	}
}
