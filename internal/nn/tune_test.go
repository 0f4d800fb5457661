package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"splitcnn/internal/autotune"
	"splitcnn/internal/core"
	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// splitConvNet builds a small conv net and returns its 2x2 split-graph
// variant, whose per-patch convolutions run on ExtractPatch shapes
// with asymmetric padding — the geometries the satellite test sweep
// must cover.
func splitConvNet(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	x := g.Input("image", tensor.Shape{2, 3, 16, 16})
	labels := g.Input("labels", tensor.Shape{2})
	w1 := g.Param("c1.w", tensor.Shape{8, 3, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{8})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1)
	r1 := g.Add("r1", nn.ReLU{}, c1)
	w2 := g.Param("c2.w", tensor.Shape{4, 8, 5, 5})
	b2 := g.Param("c2.b", tensor.Shape{4})
	c2 := g.Add("c2", nn.NewConv(5, 1, 2), r1, w2, b2)
	r2 := g.Add("r2", nn.ReLU{}, c2)
	f := g.Add("flat", nn.Flatten{}, r2)
	wf := g.Param("fc.w", tensor.Shape{2, 4 * 16 * 16})
	bf := g.Param("fc.b", tensor.Shape{2})
	fc := g.Add("fc", nn.Linear{}, f, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, fc, labels)
	g.SetOutput(loss)

	res, err := core.Split(g, core.Config{Depth: 1, NH: 2, NW: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph
}

func relErrData(got, want []float32) float64 {
	var maxAbs, maxDiff float64
	for i := range want {
		if a := math.Abs(float64(want[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(got[i] - want[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxAbs == 0 {
		return maxDiff
	}
	return maxDiff / maxAbs
}

// TestTunedDispatchOnSplitGraphShapes is the satellite property test:
// for every convolution site of a split graph (per-patch shapes with
// asymmetric halo padding) and every algorithm the tuner may install,
// dispatching through nn.Conv.ForwardInto matches tensor.Conv2DInto —
// bit-identically for the im2col plan, within fp32 noise for
// Winograd/direct, and within the pinned FFTConvTolerance for FFT.
func TestTunedDispatchOnSplitGraphShapes(t *testing.T) {
	defer autotune.Default.Reset()
	sg := splitConvNet(t)
	sites := autotune.Sites(sg)
	if len(sites) < 2 {
		t.Fatalf("split graph exposes %d conv sites, want several patch geometries", len(sites))
	}
	rng := rand.New(rand.NewSource(11))
	for _, s := range sites {
		x := tensor.New(s.In...)
		w := tensor.New(s.Cout, s.In.C(), s.Params.KH, s.Params.KW)
		b := tensor.New(s.Cout)
		x.RandNormal(rng, 1)
		w.RandNormal(rng, 0.5)
		b.RandNormal(rng, 0.1)
		op := &nn.Conv{Params: s.Params, HasBias: true}
		shape, err := op.OutShape([]tensor.Shape{x.Shape(), w.Shape(), b.Shape()})
		if err != nil {
			t.Fatal(err)
		}
		want := tensor.New(shape...)
		tensor.Conv2DInto(nil, want, x, w, b, s.Params)
		for a := autotune.Algo(0); a < 4; a++ {
			if !autotune.Applicable(a, s.Params, s.In, s.Cout) {
				continue
			}
			autotune.Default.SetPlan(s.Key(), autotune.Decision{Algo: a})
			got := forward(t, nil, op, x, w, b).out
			tol := 1e-5
			switch a {
			case autotune.Im2col:
				tol = 0 // the very same kernel: bit identity
			case autotune.FFT:
				tol = tensor.FFTConvTolerance
			}
			if e := relErrData(got.Data(), want.Data()); e > tol {
				t.Fatalf("site %s algo %v: error %v > %v (in %v k%dx%d pad%+v)",
					s.Name, a, e, tol, s.In, s.Params.KH, s.Params.KW, s.Params.Pad)
			}
		}
	}
}

// TestTunedSplitGraphEndToEnd tunes a whole split graph for real
// (tiny trial budget) and checks the executed forward stays within the
// FFT tolerance of the untuned reference — whatever mix of backends
// the measurements picked.
func TestTunedSplitGraphEndToEnd(t *testing.T) {
	defer autotune.Default.Reset()
	sg := splitConvNet(t)
	store := graph.NewParamStore()
	rng := rand.New(rand.NewSource(5))
	store.InitFromGraph(sg, rng, nn.KaimingInit)

	feeds := graph.Feeds{
		"image":  tensor.New(2, 3, 16, 16),
		"labels": tensor.Wrap([]float32{0, 1}, 2),
	}
	feeds["image"].RandNormal(rng, 1)

	exec, err := graph.NewExecutor(sg, store)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Forward(feeds)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss := append([]float32(nil), want[0].Data()...)

	autotune.Default.Trials = 1
	defer func() { autotune.Default.Trials = 0 }()
	results := autotune.Default.TuneGraph(sg)
	if len(results) != len(autotune.Sites(sg)) {
		t.Fatalf("tuned %d sites, want %d", len(results), len(autotune.Sites(sg)))
	}
	exec2, err := graph.NewExecutor(sg, store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec2.Forward(feeds)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErrData(got[0].Data(), wantLoss); e > tensor.FFTConvTolerance {
		t.Fatalf("tuned end-to-end forward drifted by %v", e)
	}
}
