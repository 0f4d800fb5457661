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

// TestTunedLiveBatchBitIdentity: a tuned instance runs each site with
// its MaxBatch decision at every live batch, so image i alone equals
// image i at any position j of a full batch, bit for bit. The MaxBatch
// plans are forced to FFT, whose rounding differs from the GEMM family's:
// a live batch that fell back to the untuned heuristic would show.
func TestTunedLiveBatchBitIdentity(t *testing.T) {
	defer autotune.Default.Reset()
	const maxBatch = 4
	m, _, err := serve.Materialize(serve.Spec{Name: "probe", ModelText: modelText, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	forced := 0
	for _, s := range autotune.Sites(m.Graph) {
		if autotune.Applicable(autotune.FFT, s.Params, s.In, s.Cout) {
			autotune.Default.SetPlan(s.Key(), autotune.Decision{Algo: autotune.FFT})
			forced++
		}
	}
	if forced == 0 {
		t.Fatal("no conv site admits FFT")
	}
	inst, err := serve.Load(serve.Spec{
		Name: "tuned", ModelText: modelText, Snapshot: writeFixtureSnapshot(t),
		MaxBatch: maxBatch, Tune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxBatch; i++ {
		img := testImage(i, inst.ImageLen())
		out, err := inst.Run([][]float32{img})
		if err != nil {
			t.Fatal(err)
		}
		alone := append([]float32(nil), out[0]...)
		for j := 0; j < maxBatch; j++ {
			batch := make([][]float32, maxBatch)
			for k := range batch {
				batch[k] = testImage(100+k, inst.ImageLen())
			}
			batch[j] = img
			outs, err := inst.Run(batch)
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range outs[j] {
				if v != alone[c] {
					t.Fatalf("image %d at position %d: logit %d = %v, alone %v", i, j, c, v, alone[c])
				}
			}
		}
	}
}
