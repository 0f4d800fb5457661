package core_test

import (
	"math/rand"
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// runModel executes one forward+backward pass of a (possibly split)
// model graph against a shared store.
func runModel(t *testing.T, g *graph.Graph, m *models.Model, store *graph.ParamStore, rng *rand.Rand) float64 {
	t.Helper()
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(m.Input.Shape...)
	x.RandNormal(rng, 1)
	labels := tensor.New(m.Labels.Shape...)
	for i := range labels.Data() {
		labels.Data()[i] = float32(i % m.Classes)
	}
	outs, err := ex.Forward(graph.Feeds{"image": x, "labels": labels})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Backward(); err != nil {
		t.Fatal(err)
	}
	return float64(outs[0].Data()[0])
}

// TestSplitVGG19AtPaperDepths transforms the CIFAR VGG-19 at every depth
// Figure 4 sweeps and verifies the realized depth tracks the request.
func TestSplitVGG19AtPaperDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, depth := range []float64{0.125, 0.25, 0.375, 0.5} {
		m := models.VGG19CIFAR(2, models.Config{WidthDiv: 16})
		store := graph.NewParamStore()
		store.InitFromGraph(m.Graph, rng, nn.KaimingInit)
		res, err := core.Split(m.Graph, core.Config{Depth: depth, NH: 2, NW: 2})
		if err != nil {
			t.Fatalf("depth %v: %v", depth, err)
		}
		want := int(depth*16 + 0.5)
		if res.SplitConvs != want {
			t.Fatalf("depth %v: split %d convs, want %d", depth, res.SplitConvs, want)
		}
		store.InitFromGraph(res.Graph, rng, nn.KaimingInit)
		if store.NumElems() != graphParamElems(res.Graph, store) {
			t.Fatalf("depth %v: split graph references unknown params", depth)
		}
		loss := runModel(t, res.Graph, m, store, rng)
		if loss <= 0 || loss > 50 {
			t.Fatalf("depth %v: loss %v implausible", depth, loss)
		}
	}
}

func graphParamElems(g *graph.Graph, store *graph.ParamStore) int64 {
	seen := map[string]bool{}
	var n int64
	for _, node := range g.Params() {
		if seen[node.Name] {
			continue
		}
		seen[node.Name] = true
		n += int64(store.Lookup(node.Name).Value.Elems())
	}
	return n
}

// TestSplitResNet18AcrossDownsampleBlocks drives the split region
// through stage-2's downsampling block: the 3x3/2 conv and the 1x1/2
// projection consume the block input under different window geometries,
// exercising the interval negotiation (the projection's empty [lb, ub]
// defers to the 3x3's interval per footnote 1).
func TestSplitResNet18AcrossDownsampleBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := models.ResNet18CIFAR(2, models.Config{WidthDiv: 16})
	total := m.ConvCount() // 20 with projections
	for _, depth := range []float64{0.25, 0.5} {
		store := graph.NewParamStore()
		store.InitFromGraph(m.Graph, rng, nn.KaimingInit)
		res, err := core.Split(m.Graph, core.Config{Depth: depth, NH: 2, NW: 2})
		if err != nil {
			t.Fatalf("depth %v: %v", depth, err)
		}
		if res.TotalConvs != total {
			t.Fatalf("total convs %d, want %d", res.TotalConvs, total)
		}
		if res.SplitConvs == 0 {
			t.Fatalf("depth %v split nothing", depth)
		}
		store.InitFromGraph(res.Graph, rng, nn.KaimingInit)
		loss := runModel(t, res.Graph, m, store, rng)
		if loss <= 0 || loss > 50 {
			t.Fatalf("depth %v: loss %v implausible", depth, loss)
		}
	}
}

// TestSplitResNet18NarrowPatches cuts the 64x64 ResNet-18 into 4x4,
// 6x6 and 8x8 patches. The 7x7/2 stem then convolves patches as narrow
// as one pixel under pad 3, where whole kernel columns read only
// padding; forward and backward through the executor must still run
// and produce a finite loss.
func TestSplitResNet18NarrowPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := models.ResNet18(models.Config{BatchSize: 2, Classes: 10, InputC: 3, InputH: 64, InputW: 64, WidthDiv: 16})
	for _, nhw := range []int{4, 6, 8} {
		res, err := core.Split(m.Graph, core.Config{Depth: 0.5, NH: nhw, NW: nhw})
		if err != nil {
			t.Fatalf("%dx%d: %v", nhw, nhw, err)
		}
		store := graph.NewParamStore()
		store.InitFromGraph(res.Graph, rng, nn.KaimingInit)
		if loss := runModel(t, res.Graph, m, store, rng); !(loss > 0 && loss <= 50) {
			t.Fatalf("%dx%d: loss %v implausible", nhw, nhw, loss)
		}
	}
}

// TestSplitAlexNetLargeKernels exercises the 11x11/4 and 5x5/1 windows.
func TestSplitAlexNetLargeKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := models.AlexNet(models.Config{BatchSize: 2, Classes: 10, InputC: 3, InputH: 64, InputW: 64, WidthDiv: 16})
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rng, nn.KaimingInit)
	res, err := core.Split(m.Graph, core.Config{Depth: 0.6, NH: 2, NW: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitConvs != 3 { // 60% of 5
		t.Fatalf("split %d convs, want 3", res.SplitConvs)
	}
	store.InitFromGraph(res.Graph, rng, nn.KaimingInit)
	loss := runModel(t, res.Graph, m, store, rng)
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
}

// TestStochasticSplitTrainsAndEvalsUnsplit is the §3.3 contract: train
// steps run on per-minibatch stochastic rewrites while evaluation runs
// the original unsplit graph with the same parameters.
func TestStochasticSplitTrainsAndEvalsUnsplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := models.VGG19CIFAR(2, models.Config{WidthDiv: 16})
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rng, nn.KaimingInit)
	for step := 0; step < 3; step++ {
		res, err := core.Split(m.Graph, core.Config{
			Depth: 0.5, NH: 2, NW: 2, Stochastic: true, Omega: 0.2, Rng: rng,
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		store.InitFromGraph(res.Graph, rng, nn.KaimingInit)
		store.ZeroGrads()
		_ = runModel(t, res.Graph, m, store, rng)
		for _, p := range store.All() {
			tensor.AXPY(p.Value, -0.01, p.Grad)
		}
	}
	// Evaluate on the unsplit graph: must run with the trained store.
	loss := runModel(t, m.Graph, m, store, rng)
	if loss <= 0 || loss > 100 {
		t.Fatalf("unsplit eval loss %v", loss)
	}
}
