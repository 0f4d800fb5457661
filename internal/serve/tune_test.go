package serve_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"splitcnn/internal/autotune"
	"splitcnn/internal/serve"
)

// TestConcurrentTunedLoads is the race-detector coverage for warmup
// tuning: several goroutines load tuned instances of the same model at
// once — the shape-level singleflight plus the shared cache file must
// survive `go test -race` with every load producing a working
// instance and the same logits as an untuned one.
func TestConcurrentTunedLoads(t *testing.T) {
	defer autotune.Default.Reset()
	snap := writeFixtureSnapshot(t)
	cache := filepath.Join(t.TempDir(), "autotune.json")

	// Untuned reference logits for the shared fixture weights.
	ref, err := serve.Load(serve.Spec{
		Name: "ref", ModelText: modelText, Snapshot: snap, MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(3, ref.ImageLen())
	want, err := ref.Run([][]float32{img})
	if err != nil {
		t.Fatal(err)
	}
	wantLogits := append([]float32(nil), want[0]...)

	const loaders = 6
	insts := make([]*serve.Instance, loaders)
	errs := make([]error, loaders)
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := serve.Spec{
				Name: "tuned", ModelText: modelText, Snapshot: snap,
				MaxBatch: 2, Tune: true, TuneCache: cache,
			}
			insts[i], errs[i] = serve.Load(spec)
		}(i)
	}
	wg.Wait()

	for i := 0; i < loaders; i++ {
		if errs[i] != nil {
			t.Fatalf("loader %d: %v", i, errs[i])
		}
		got, err := insts[i].Run([][]float32{img})
		if err != nil {
			t.Fatalf("loader %d run: %v", i, err)
		}
		// Whatever backend won, serving output stays within the FFT
		// backend's pinned tolerance of the untuned reference; with a
		// GEMM-family winner it is bit-identical.
		for j := range wantLogits {
			d := float64(got[0][j] - wantLogits[j])
			if d < 0 {
				d = -d
			}
			if d > 1e-3 {
				t.Fatalf("loader %d logit %d drifted: %v vs %v", i, j, got[0][j], wantLogits[j])
			}
		}
	}
	if autotune.Default.Len() == 0 {
		t.Fatal("no plans tuned")
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("tune cache not persisted: %v", err)
	}
}
