package train_test

import (
	"math"
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
	"splitcnn/internal/train"
)

// buildCacheNet builds image → c1 (3×3) → ReLU → c2 (3×3) → global
// average pool → linear → loss, with the logits as the output in eval
// mode. Nothing after c2 drops a NaN, so a NaN weight's payload reaches
// the logits. Every build has its own ops, so its own packed-weight
// caches; param names are fixed, so builds share one store.
func buildCacheNet(batch int, training bool) *graph.Graph {
	g := graph.New()
	x := g.Input("image", tensor.Shape{batch, 3, 12, 12})
	labels := g.Input("labels", tensor.Shape{batch})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x,
		g.Param("c1.w", tensor.Shape{8, 3, 3, 3}), g.Param("c1.b", tensor.Shape{8}))
	r1 := g.Add("r1", nn.ReLU{}, c1)
	c2 := g.Add("c2", nn.NewConv(3, 2, 1), r1,
		g.Param("c2.w", tensor.Shape{20, 8, 3, 3}), g.Param("c2.b", tensor.Shape{20}))
	gap := g.Add("gap", nn.GlobalAvgPool{}, c2)
	fl := g.Add("fl", nn.Flatten{}, gap)
	logits := g.Add("fc", nn.Linear{}, fl,
		g.Param("fc.w", tensor.Shape{5, 20}), g.Param("fc.b", tensor.Shape{5}))
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, logits, labels)
	if training {
		g.SetOutput(loss)
	} else {
		g.SetOutput(logits)
	}
	return g
}

// TestConvWeightCacheFollowsMutations mutates conv weights between
// forwards of one compiled program, whose conv ops keep their packed
// weights across forwards, and requires its logits bit-identical to a
// program compiled afresh over the same store after every mutation. A
// weight set through Data(), a full SGD step and a NaN payload change
// each move the logits, so a stale pack would show; a +0/−0 flip cannot
// change a conv output (every chain starts at +0), and is checked for
// completeness.
func TestConvWeightCacheFollowsMutations(t *testing.T) {
	const batch = 2
	g := buildCacheNet(batch, false)
	store := graph.NewParamStore()
	store.InitFromGraph(g, rand.New(rand.NewSource(3)), nn.KaimingInit)
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(batch, 3, 12, 12)
	rng := rand.New(rand.NewSource(4))
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()*2 - 1
	}
	feeds := graph.Feeds{"image": x, "labels": tensor.FromSlice([]float32{1, 3}, batch)}

	trainG := buildCacheNet(batch, true)
	ex, err := graph.NewExecutor(trainG, store)
	if err != nil {
		t.Fatal(err)
	}
	opt := &train.SGD{LR: 0.05, Momentum: 0.9}
	w1, w2 := store.Lookup("c1.w").Value.Data(), store.Lookup("c2.w").Value.Data()
	negZero := float32(math.Copysign(0, -1))

	logits := func(p *graph.CompiledProgram) []uint32 {
		t.Helper()
		outs, err := p.Forward(feeds)
		if err != nil {
			t.Fatal(err)
		}
		bits := make([]uint32, outs[0].Shape().Elems())
		for i, v := range outs[0].Data() {
			bits[i] = math.Float32bits(v)
		}
		return bits
	}
	prev := logits(prog)
	for _, m := range []struct {
		name   string
		moves  bool // the mutation must change the logits' bits
		mutate func()
	}{
		{"one weight through Data()", true, func() { w2[17] += 0.5 }},
		{"first conv weight", true, func() { w1[4] = -w1[4] }},
		{"SGD step", true, func() {
			store.ZeroGrads()
			if _, err := ex.Forward(feeds); err != nil {
				t.Fatal(err)
			}
			if err := ex.Backward(); err != nil {
				t.Fatal(err)
			}
			opt.Step(store)
		}},
		{"+0", true, func() { w2[40] = 0 }},
		{"+0 to -0", false, func() { w2[40] = negZero }},
		{"-0 to +0", false, func() { w2[40] = 0 }},
		{"NaN", true, func() { w2[41] = math.Float32frombits(0x7fc00001) }},
		{"NaN payload", true, func() { w2[41] = math.Float32frombits(0x7fc00abc) }},
		{"NaN sign", true, func() { w2[41] = math.Float32frombits(0xffc00abc) }},
	} {
		m.mutate()
		got := logits(prog)
		fresh, err := graph.Compile(buildCacheNet(batch, false), store, graph.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := logits(fresh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: logit %d = %#08x, a fresh program gives %#08x", m.name, i, got[i], want[i])
			}
		}
		changed := false
		for i := range want {
			changed = changed || want[i] != prev[i]
		}
		if changed != m.moves {
			t.Fatalf("%s: logits changed = %v, want %v", m.name, changed, m.moves)
		}
		prev = got
	}
}
