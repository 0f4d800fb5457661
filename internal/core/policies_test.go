package core

import (
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// TestAllPoliciesPreserveShapes: lower/midpoint/upper boundary policies
// all yield executable split graphs with unchanged output shapes.
func TestAllPoliciesPreserveShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := buildConvGraph(1, 3, 16, 16, 4, 3, 1, 1)
	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	x := tensor.New(1, 3, 16, 16)
	x.RandNormal(rng, 1)
	base := runGraph(t, g, store, graph.Feeds{"image": x})
	for _, p := range []BoundaryPolicy{PolicyLower, PolicyMidpoint, PolicyUpper} {
		res, err := Split(g, Config{Depth: 1, NH: 2, NW: 2, Policy: p})
		if err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
		out := runGraph(t, res.Graph, store, graph.Feeds{"image": x})
		if !out.Shape().Equal(base.Shape()) {
			t.Fatalf("policy %v: shape %v vs %v", p, out.Shape(), base.Shape())
		}
	}
}

// TestPolicyBoundaryPadding: PolicyLower gives the right patch its full
// receptive field (zero begin-padding beyond the global), PolicyUpper
// the left patch (zero end-padding).
func TestPolicyBoundaryPadding(t *testing.T) {
	w := tensor.Window1D{K: 3, S: 1, Pb: 1, Pe: 1}
	out := Scheme{0, 8} // output length 16
	lowIn, err := InputScheme(out, w, 16, PolicyLower)
	if err != nil {
		t.Fatal(err)
	}
	lowB, lowE := axisPads(w, lowIn, out, 16)
	if lowB[1] != 0 || lowE[0] != w.K-w.S {
		t.Fatalf("PolicyLower pads %v %v, want right patch begin 0", lowB, lowE)
	}
	upIn, err := InputScheme(out, w, 16, PolicyUpper)
	if err != nil {
		t.Fatal(err)
	}
	upB, upE := axisPads(w, upIn, out, 16)
	if upE[0] != 0 || upB[1] != w.K-w.S {
		t.Fatalf("PolicyUpper pads %v %v, want left patch end 0", upB, upE)
	}
}

// TestMultiFrontierMidBlockCut: cutting a residual block in the middle
// produces two joins (the branch tensor and the skip tensor), and the
// graph still executes.
func TestMultiFrontierMidBlockCut(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.New()
	x := g.Input("image", tensor.Shape{1, 4, 16, 16})
	w1 := g.Param("c1.w", tensor.Shape{4, 4, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{4})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1) // in region (budget 1)
	w2 := g.Param("c2.w", tensor.Shape{4, 4, 3, 3})
	b2 := g.Param("c2.b", tensor.Shape{4})
	c2 := g.Add("c2", nn.NewConv(3, 1, 1), c1, w2, b2) // outside (budget spent)
	add := g.Add("add", &nn.Add{N: 2}, c2, c1)         // consumes region tensor c1
	g.SetOutput(add)

	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	res, err := Split(g, Config{Depth: 0.5, NH: 2, NW: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitConvs != 1 {
		t.Fatalf("split %d convs, want 1", res.SplitConvs)
	}
	if len(res.JoinNames) != 1 {
		t.Fatalf("joins %v: c1 is the single frontier feeding both c2 and add", res.JoinNames)
	}
	xt := tensor.New(1, 4, 16, 16)
	xt.RandNormal(rng, 1)
	out := runGraph(t, res.Graph, store, graph.Feeds{"image": xt})
	if !out.Shape().Equal(tensor.Shape{1, 4, 16, 16}) {
		t.Fatalf("shape %v", out.Shape())
	}
}

// TestSplitPatchSerialOrder: patch chains must be emitted serially (all
// of patch 0's layers before patch 1's) — the property that lets HMMS
// offload one patch while the next computes.
func TestSplitPatchSerialOrder(t *testing.T) {
	g := chainGraph(1)
	res, err := Split(g, Config{Depth: 1, NH: 2, NW: 2})
	if err != nil {
		t.Fatal(err)
	}
	lastOfPatch := map[int]int{}
	firstOfPatch := map[int]int{}
	for _, n := range res.Graph.Nodes {
		if n.Kind != graph.KindOp {
			continue
		}
		var p int
		if k, err := fmtSscanfPatch(n.Name, &p); !k || err != nil {
			continue
		}
		if _, ok := firstOfPatch[p]; !ok {
			firstOfPatch[p] = n.ID
		}
		lastOfPatch[p] = n.ID
	}
	for p := 0; p < 3; p++ {
		if lastOfPatch[p] > firstOfPatch[p+1] {
			t.Fatalf("patch %d (ends %d) interleaves with patch %d (starts %d)",
				p, lastOfPatch[p], p+1, firstOfPatch[p+1])
		}
	}
}

// fmtSscanfPatch extracts the trailing ".pN" patch index of a node name
// produced by the transform (extract/join nodes do not match).
func fmtSscanfPatch(name string, p *int) (bool, error) {
	for i := len(name) - 1; i > 0; i-- {
		if name[i] == 'p' && name[i-1] == '.' {
			v := 0
			if i+1 >= len(name) {
				return false, nil
			}
			for j := i + 1; j < len(name); j++ {
				if name[j] < '0' || name[j] > '9' {
					return false, nil
				}
				v = v*10 + int(name[j]-'0')
			}
			*p = v
			return true, nil
		}
	}
	return false, nil
}

// TestRealizedDepth accessor.
func TestRealizedDepth(t *testing.T) {
	r := &Result{SplitConvs: 3, TotalConvs: 12}
	if d := r.RealizedDepth(); d != 0.25 {
		t.Fatalf("realized depth %v", d)
	}
	empty := &Result{}
	if empty.RealizedDepth() != 0 {
		t.Fatal("zero-conv graph should report depth 0")
	}
}
