package serve_test

import (
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
)

// TestInstanceMatchesExecutor pins the one serving route — the compiled
// static program behind Instance.Run — to the reference: for every
// bundled architecture and every live batch 1…MaxBatch, the logits equal
// the first rows of graph.Executor.Forward over the same materialized
// model bit for bit.
// (TestServeEndToEnd then ties the HTTP/batching surface to
// Instance.Run.)
func TestInstanceMatchesExecutor(t *testing.T) {
	for _, arch := range models.Architectures() {
		t.Run(arch, func(t *testing.T) {
			hw := 32
			if arch == "alexnet" {
				hw = 64 // alexnet's pool stack needs a larger input
			}
			spec := serve.Spec{
				Name: arch, Arch: arch, MaxBatch: 4,
				Model: models.Config{Classes: 10, InputC: 3, InputH: hw, InputW: hw, WidthDiv: 16, BatchNorm: true},
			}
			inst, err := serve.Load(spec)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			m, store, err := serve.Materialize(spec)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			ex, err := graph.NewExecutor(m.Graph, store)
			if err != nil {
				t.Fatalf("executor: %v", err)
			}
			x := tensor.New(spec.MaxBatch, 3, hw, hw)
			feeds := graph.Feeds{"image": x, "labels": tensor.New(spec.MaxBatch)}
			for n := 1; n <= spec.MaxBatch; n++ {
				// Run computes only the n images; the executor runs a
				// full batch whose first n images are the same.
				x.Zero()
				imgs := make([][]float32, n)
				for i := range imgs {
					imgs[i] = testImage(i, inst.ImageLen())
					copy(x.Data()[i*inst.ImageLen():], imgs[i])
				}
				got, err := inst.Run(imgs)
				if err != nil {
					t.Fatalf("run batch %d: %v", n, err)
				}
				outs, err := ex.Forward(feeds)
				if err != nil {
					t.Fatalf("executor batch %d: %v", n, err)
				}
				want := outs[0].Data()
				for i := range got {
					for j, v := range got[i] {
						if w := want[i*inst.Classes+j]; v != w {
							t.Fatalf("batch %d image %d logit %d = %v, want executor-identical %v", n, i, j, v, w)
						}
					}
				}
			}
		})
	}
}
