package graph_test

import (
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

func TestGraphConstructionAndTopo(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{1, 4})
	r1 := g.Add("r1", nn.ReLU{}, x)
	r2 := g.Add("r2", nn.ReLU{}, r1)
	g.SetOutput(r2)
	topo, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	if len(topo) != 3 {
		t.Fatalf("topo len %d", len(topo))
	}
	if x.ID != 0 || r1.ID != 1 || r2.ID != 2 {
		t.Fatal("IDs not in insertion order")
	}
	cons := g.Consumers()
	if len(cons[x.ID]) != 1 || cons[x.ID][0] != r1 {
		t.Fatal("consumer map wrong")
	}
	if g.FindNode("r2") != r2 || g.FindNode("zzz") != nil {
		t.Fatal("FindNode wrong")
	}
}

func TestGraphShapeInferencePanicsOnMismatch(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{1, 4})
	y := g.Input("y", tensor.Shape{1, 5})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched add accepted")
		}
	}()
	g.Add("add", &nn.Add{N: 2}, x, y)
}

func TestParamStoreShapes(t *testing.T) {
	s := graph.NewParamStore()
	p := s.Get("w", tensor.Shape{2, 3})
	if p.Value.Elems() != 6 || p.Grad.Elems() != 6 || p.Velocity.Elems() != 6 {
		t.Fatal("param buffers wrong")
	}
	if s.Get("w", tensor.Shape{2, 3}) != p {
		t.Fatal("Get not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape conflict accepted")
		}
	}()
	s.Get("w", tensor.Shape{3, 2})
}

func TestParamStoreAccounting(t *testing.T) {
	s := graph.NewParamStore()
	s.Get("a", tensor.Shape{10})
	s.Get("b", tensor.Shape{5, 2})
	if s.Len() != 2 || s.NumElems() != 20 || s.Bytes() != 80 {
		t.Fatalf("accounting wrong: %d %d %d", s.Len(), s.NumElems(), s.Bytes())
	}
	all := s.All()
	if len(all) != 2 || all[0].Name != "a" || all[1].Name != "b" {
		t.Fatal("All() not sorted by name")
	}
	all[0].Grad.Fill(3)
	s.ZeroGrads()
	if all[0].Grad.Sum() != 0 {
		t.Fatal("ZeroGrads failed")
	}
}

func TestExecutorMissingFeed(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{1, 4})
	out := g.Add("r", nn.ReLU{}, x)
	g.SetOutput(out)
	ex, err := graph.NewExecutor(g, graph.NewParamStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Forward(graph.Feeds{}); err == nil {
		t.Fatal("missing feed accepted")
	}
	bad := tensor.New(2, 4)
	if _, err := ex.Forward(graph.Feeds{"x": bad}); err == nil {
		t.Fatal("mis-shaped feed accepted")
	}
}

// TestExecutorRunsOnlyWhatOutputsReach: an op no output reads does not
// run, so its input needs no feed — a logits-only graph needs no labels.
func TestExecutorRunsOnlyWhatOutputsReach(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{1, 4})
	out := g.Add("r", nn.ReLU{}, x)
	unread := g.Add("unread", nn.ReLU{}, g.Input("labels", tensor.Shape{1, 4}))
	g.SetOutput(out)
	ex, err := graph.NewExecutor(g, graph.NewParamStore())
	if err != nil {
		t.Fatal(err)
	}
	xt := tensor.FromSlice([]float32{-1, 2, -3, 4}, 1, 4)
	outs, err := ex.Forward(graph.Feeds{"x": xt})
	if err != nil {
		t.Fatalf("forward without the unread op's feed: %v", err)
	}
	if got := outs[0].Data(); got[0] != 0 || got[1] != 2 || got[2] != 0 || got[3] != 4 {
		t.Fatalf("relu = %v", got)
	}
	if ex.Value(unread) != nil {
		t.Fatal("the unread op ran")
	}
	// An extra feed stays ignored.
	if _, err := ex.Forward(graph.Feeds{"x": xt, "labels": tensor.New(1, 4)}); err != nil {
		t.Fatalf("forward with an extra feed: %v", err)
	}
}

func TestExecutorRequiresInitializedParams(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{1, 4})
	w := g.Param("fc.w", tensor.Shape{2, 4})
	b := g.Param("fc.b", tensor.Shape{2})
	out := g.Add("fc", nn.Linear{}, x, w, b)
	g.SetOutput(out)
	if _, err := graph.NewExecutor(g, graph.NewParamStore()); err == nil {
		t.Fatal("uninitialized store accepted")
	}
}

// TestExecutorPeakLiveTracking: the executor's liveness accounting must
// drop activations nobody stashes.
func TestExecutorPeakLiveTracking(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.Shape{1, 1024})
	cur := x
	for i := 0; i < 8; i++ {
		cur = g.Add("d"+string(rune('a'+i)), &nn.Dropout{}, cur)
	}
	g.SetOutput(cur)
	ex, err := graph.NewExecutor(g, graph.NewParamStore())
	if err != nil {
		t.Fatal(err)
	}
	xt := tensor.New(1, 1024)
	if _, err := ex.Forward(graph.Feeds{"x": xt}); err != nil {
		t.Fatal(err)
	}
	// Eight 4 KiB activations pass through; dropout stashes nothing, so
	// peak live should stay far below the 32 KiB sum.
	if ex.PeakLiveBytes >= 8*4096 {
		t.Fatalf("peak live %d, executor is not releasing dead activations", ex.PeakLiveBytes)
	}
}

// TestInitializerConventions checks KaimingInit's naming dispatch.
func TestInitializerConventions(t *testing.T) {
	g := graph.New()
	g.Param("c.w", tensor.Shape{8, 4, 3, 3})
	g.Param("c.b", tensor.Shape{8})
	g.Param("bn.gamma", tensor.Shape{8})
	g.Param("bn.beta", tensor.Shape{8})
	s := graph.NewParamStore()
	s.InitFromGraph(g, rand.New(rand.NewSource(1)), nn.KaimingInit)
	if s.Lookup("c.w").Value.Sum() == 0 {
		t.Fatal("weights not initialized")
	}
	if s.Lookup("bn.gamma").Value.At(0) != 1 {
		t.Fatal("gamma not one")
	}
	if s.Lookup("bn.beta").Value.Sum() != 0 || s.Lookup("c.b").Value.Sum() != 0 {
		t.Fatal("beta/bias not zero")
	}
	if !s.Lookup("bn.gamma").NoDecay || !s.Lookup("c.b").NoDecay {
		t.Fatal("NoDecay flags not set")
	}
	if s.Lookup("c.w").NoDecay {
		t.Fatal("weights must decay")
	}
}
