package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"splitcnn/internal/graph"
	"splitcnn/internal/modelfile"
	"splitcnn/internal/nn"
	"splitcnn/internal/serve"
	"splitcnn/internal/snapshot"
	"splitcnn/internal/trace"
)

// modelText is a deliberately modal architecture: dropout must become
// the identity and batch norm must use the snapshot's running
// statistics for serving outputs to be reproducible at all.
const modelText = `
input 3 6 6
conv 4 k3 s1 p1
bn
relu
pool max k2 s2
flatten
dropout 0.3
linear 5
`

// coalesceModelText is modelText with two wide 3×3 convolutions added:
// a forward long enough (≈ 5 MFLOP per image) that concurrent requests
// queue behind it. The batcher never waits for company, so a model
// whose forward is shorter than the gap between arrivals is never
// coalesced at all.
const coalesceModelText = `
input 3 6 6
conv 64 k3 s1 p1
bn
relu
conv 64 k3 s1 p1
relu
conv 64 k3 s1 p1
relu
pool max k2 s2
flatten
dropout 0.3
linear 5
`

// writeFixtureSnapshot builds the test model once, gives it non-trivial
// weights and BN running statistics, and saves them. Serving instances
// and the reference instance all restore from this one file, which is
// what makes bit-identity assertions meaningful.
func writeFixtureSnapshot(t *testing.T) string { return writeSnapshot(t, modelText) }

// writeSnapshot is writeFixtureSnapshot for any model text.
func writeSnapshot(t *testing.T, text string) string {
	t.Helper()
	m, err := modelfile.ParseString(text, 1)
	if err != nil {
		t.Fatalf("parse fixture model: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rng, nn.KaimingInit)
	for _, st := range m.BNStates {
		for i := range st.RunningMean {
			st.RunningMean[i] = rng.NormFloat64() * 0.3
			st.RunningVar[i] = 0.5 + rng.Float64()
		}
	}
	path := filepath.Join(t.TempDir(), "fixture.snap")
	if err := snapshot.SaveFile(path, store, m.BNStates); err != nil {
		t.Fatalf("save fixture snapshot: %v", err)
	}
	return path
}

func testImage(i, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	img := make([]float32, n)
	for j := range img {
		img[j] = float32(rng.NormFloat64())
	}
	return img
}

// TestServeEndToEnd starts the HTTP server, fires 64 concurrent
// requests, and checks the acceptance criteria: every response is
// bit-identical to a single-request eval-mode forward of the same
// image, and at least one batch coalesced more than one request.
func TestServeEndToEnd(t *testing.T) {
	snap := writeSnapshot(t, coalesceModelText)
	reg, err := serve.NewRegistry(serve.Spec{
		Name: "tiny", ModelText: coalesceModelText, Snapshot: snap, MaxBatch: 8,
	})
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	srv := serve.NewServer(reg, serve.Options{
		QueueDepth:     128,
		RequestTimeout: 30 * time.Second,
		Metrics:        trace.NewMetrics(),
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + addr.String()

	// Reference: a separate batch-1 instance restored from the same
	// snapshot. Its Run is the "single-request eval-mode forward" the
	// server's coalesced outputs must match bit for bit.
	ref, err := serve.Load(serve.Spec{
		Name: "ref", ModelText: coalesceModelText, Snapshot: snap, MaxBatch: 1,
	})
	if err != nil {
		t.Fatalf("reference instance: %v", err)
	}
	imageLen := ref.ImageLen()

	const n = 64
	got := make([]serve.PredictResponse, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(serve.PredictRequest{Model: "tiny", Image: testImage(i, imageLen)})
			<-start
			resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&got[i]); err != nil {
				errs <- fmt.Errorf("request %d: decode: %w", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Bit-identity: JSON renders float32 with the shortest decimal that
	// re-parses to the identical bits, so == over the decoded values is
	// an exact comparison with the reference forward.
	coalesced := 0
	for i := 0; i < n; i++ {
		want, err := ref.Run([][]float32{testImage(i, imageLen)})
		if err != nil {
			t.Fatalf("reference forward %d: %v", i, err)
		}
		if len(got[i].Logits) != len(want[0]) {
			t.Fatalf("request %d: %d logits, want %d", i, len(got[i].Logits), len(want[0]))
		}
		for j := range want[0] {
			if got[i].Logits[j] != want[0][j] {
				t.Errorf("request %d logit %d = %v, want %v (batch size %d)",
					i, j, got[i].Logits[j], want[0][j], got[i].BatchSize)
			}
		}
		wantArg := 0
		for j, v := range want[0] {
			if v > want[0][wantArg] {
				wantArg = j
			}
		}
		if got[i].Argmax != wantArg {
			t.Errorf("request %d argmax = %d, want %d", i, got[i].Argmax, wantArg)
		}
		if got[i].BatchSize > 1 {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Error("no request was coalesced into a batch > 1 across 64 concurrent requests")
	}

	met := srv.Metrics()
	if v := met.Counter("serve.requests").Value(); v != n {
		t.Errorf("serve.requests = %d, want %d", v, n)
	}
	batches := met.Histogram("serve.batch_size", nil).Count()
	if batches < 1 || batches >= n {
		t.Errorf("serve.batch_size count = %d, want in [1, %d) (coalescing)", batches, n)
	}
	if v := met.Histogram("serve.latency_seconds", nil).Count(); v != n {
		t.Errorf("serve.latency_seconds count = %d, want %d", v, n)
	}

	// Error paths: wrong image length and unknown model.
	for _, tc := range []struct {
		req  serve.PredictRequest
		code int
	}{
		{serve.PredictRequest{Model: "tiny", Image: []float32{1, 2, 3}}, http.StatusBadRequest},
		{serve.PredictRequest{Model: "nope", Image: testImage(0, imageLen)}, http.StatusNotFound},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("error-path request: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("model=%q len=%d: status %d, want %d", tc.req.Model, len(tc.req.Image), resp.StatusCode, tc.code)
		}
	}

	// Introspection endpoints.
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	var infos []serve.ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("models decode: %v", err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "tiny" || infos[0].Classes != 5 ||
		infos[0].Input != [3]int{3, 6, 6} || infos[0].MaxBatch != 8 {
		t.Errorf("models = %+v", infos)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metricsz")
	if err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	var md struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&md); err != nil {
		t.Fatalf("metricsz decode: %v", err)
	}
	resp.Body.Close()
	if md.Counters["serve.requests"] != n {
		t.Errorf("metricsz serve.requests = %d, want %d", md.Counters["serve.requests"], n)
	}
	if p99 := md.Gauges["serve.latency_p99_seconds"]; p99 <= 0 {
		t.Errorf("metricsz serve.latency_p99_seconds = %v, want > 0", p99)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeDefaultModel checks that an empty model name routes to the
// first-registered model.
func TestServeDefaultModel(t *testing.T) {
	snap := writeFixtureSnapshot(t)
	reg, err := serve.NewRegistry(serve.Spec{
		Name: "tiny", ModelText: modelText, Snapshot: snap, MaxBatch: 2,
	})
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	srv := serve.NewServer(reg, serve.Options{RequestTimeout: 10 * time.Second})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	inst, _ := reg.Lookup("")
	body, _ := json.Marshal(serve.PredictRequest{Image: testImage(0, inst.ImageLen())})
	resp, err := http.Post("http://"+addr.String()+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pr.Model != "tiny" {
		t.Errorf("default routing hit model %q, want tiny", pr.Model)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
