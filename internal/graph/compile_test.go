package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// buildCompileNet is the deterministic workhorse net for the compile
// tests: conv+bias at 3x3/1 and 5x5, batch norm, in-place-fusable
// ReLUs, pooling, dropout, flatten, and a dual loss+logits output
// exactly like train.Evaluate's topology.
// training selects the mode the modal ops are built in.
func buildCompileNet(batch int, training bool) (*graph.Graph, *graph.ParamStore) {
	g := graph.New()
	x := g.Input("image", tensor.Shape{batch, 3, 16, 16})
	labels := g.Input("labels", tensor.Shape{batch})
	w1 := g.Param("c1.w", tensor.Shape{8, 3, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{8})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1)
	r1 := g.Add("c1.relu", nn.ReLU{}, c1)
	bn := nn.NewBatchNorm(nn.NewBNState("c1.bn", 8))
	bn.Training = training
	gamma := g.Param("c1.bn.gamma", tensor.Shape{8})
	beta := g.Param("c1.bn.beta", tensor.Shape{8})
	n1 := g.Add("c1.bn", bn, r1, gamma, beta)
	p1 := g.Add("pool1", nn.NewMaxPool(2, 2), n1)
	w2 := g.Param("c2.w", tensor.Shape{12, 8, 5, 5})
	b2 := g.Param("c2.b", tensor.Shape{12})
	c2 := g.Add("c2", &nn.Conv{Params: tensor.ConvParams{KH: 5, KW: 5, SH: 1, SW: 1, Pad: tensor.Symmetric(2)}, HasBias: true}, p1, w2, b2)
	r2 := g.Add("c2.relu", nn.ReLU{}, c2)
	do := &nn.Dropout{P: 0.4, Training: training, Rng: rand.New(rand.NewSource(77))}
	d1 := g.Add("drop1", do, r2)
	gap := g.Add("gap", nn.GlobalAvgPool{}, d1)
	fl := g.Add("flatten", nn.Flatten{}, gap)
	wf := g.Param("fc.w", tensor.Shape{7, 12})
	bf := g.Param("fc.b", tensor.Shape{7})
	logits := g.Add("logits", nn.Linear{}, fl, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, logits, labels)
	g.SetOutput(loss)
	g.Outputs = append(g.Outputs, logits)

	store := graph.NewParamStore()
	store.InitFromGraph(g, rand.New(rand.NewSource(11)), nn.KaimingInit)
	return g, store
}

func compileFeeds(t *testing.T, g *graph.Graph, seed int64) graph.Feeds {
	t.Helper()
	in := g.FindNode("image")
	lb := g.FindNode("labels")
	if in == nil || lb == nil {
		t.Fatal("net is missing image/labels inputs")
	}
	x := tensor.New(in.Shape...)
	rng := rand.New(rand.NewSource(seed))
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = rng.Float32()*2 - 1
	}
	y := tensor.New(lb.Shape...)
	classes := g.Outputs[len(g.Outputs)-1].Shape[1]
	for i := range y.Data() {
		y.Data()[i] = float32(rng.Intn(classes))
	}
	return graph.Feeds{"image": x, "labels": y}
}

// assertBitIdentical compares two output lists element-exactly.
func assertBitIdentical(t *testing.T, label string, want, got []*tensor.Tensor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outputs vs %d", label, len(got), len(want))
	}
	for oi := range want {
		wd, gd := want[oi].Data(), got[oi].Data()
		if len(wd) != len(gd) {
			t.Fatalf("%s: output %d has %d elems, want %d", label, oi, len(gd), len(wd))
		}
		for i := range wd {
			if wd[i] != gd[i] {
				t.Fatalf("%s: output %d elem %d = %x, want bit-identical %x",
					label, oi, i, gd[i], wd[i])
			}
		}
	}
}

// TestCompiledMatchesInterpreted pins the core contract on the
// deterministic net: the compiled program's outputs are bit-identical
// to the interpreted executor's, in both modes, with and without the
// rewrites, and the rewrites actually fire (fused conv+bias+ReLU,
// elided dropout, viewed flatten).
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, training := range []bool{false, true} {
		for _, noRewrite := range []bool{false, true} {
			name := fmt.Sprintf("training=%v/noRewrite=%v", training, noRewrite)
			// Independent graphs so the interpreted and compiled dropout
			// ops hold identically seeded private RNG streams.
			gi, store := buildCompileNet(3, training)
			gc, _ := buildCompileNet(3, training)

			ex, err := graph.NewExecutor(gi, store)
			if err != nil {
				t.Fatal(err)
			}
			ex.UseArena(tensor.NewArena())
			ref, err := ex.Forward(compileFeeds(t, gi, 5))
			if err != nil {
				t.Fatalf("%s: interpreted: %v", name, err)
			}

			prog, err := graph.Compile(gc, store, graph.CompileOptions{NoRewrite: noRewrite})
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			outs, err := prog.Forward(compileFeeds(t, gc, 5))
			if err != nil {
				t.Fatalf("%s: compiled: %v", name, err)
			}
			assertBitIdentical(t, name, ref, outs)

			st := prog.Stats()
			if st.SlabBytes != prog.SlabBytes() {
				t.Fatalf("%s: stats slab %d != SlabBytes %d", name, st.SlabBytes, prog.SlabBytes())
			}
			if st.SlabBytes > st.NoReuseBytes {
				t.Fatalf("%s: slab %d exceeds no-reuse baseline %d", name, st.SlabBytes, st.NoReuseBytes)
			}
			if noRewrite {
				if st.Fused != 0 || st.Elided != 0 || st.Reshaped != 0 {
					t.Fatalf("%s: rewrites fired despite NoRewrite: %+v", name, st)
				}
				if st.Steps != st.Ops {
					t.Fatalf("%s: %d steps for %d ops without rewrites", name, st.Steps, st.Ops)
				}
				continue
			}
			// Both ReLUs fold into their conv+bias producers in every mode.
			if st.Fused < 2 {
				t.Fatalf("%s: want >= 2 fused conv+bias+ReLU passes, got %d", name, st.Fused)
			}
			if st.Reshaped != 1 {
				t.Fatalf("%s: want flatten viewed, stats %+v", name, st)
			}
			if training {
				if st.Elided != 0 {
					t.Fatalf("%s: training dropout must not be elided: %+v", name, st)
				}
			} else {
				if st.Elided != 1 {
					t.Fatalf("%s: want eval dropout elided, stats %+v", name, st)
				}
				// Eval-mode BN folds in place as well.
				if st.Fused < 3 {
					t.Fatalf("%s: want eval BN folded, stats %+v", name, st)
				}
			}
			if st.Steps != st.Ops-st.Fused-st.Elided-st.Reshaped {
				t.Fatalf("%s: step arithmetic off: %+v", name, st)
			}
		}
	}
}

// TestCompiledRepeatStability: eval-mode compiled forwards are
// bit-stable across calls (the slab and scratch are fully rewritten).
func TestCompiledRepeatStability(t *testing.T) {
	g, store := buildCompileNet(2, false)
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feeds := compileFeeds(t, g, 8)
	first, err := prog.Forward(feeds)
	if err != nil {
		t.Fatal(err)
	}
	var ref [][]float32
	for _, o := range first {
		ref = append(ref, append([]float32(nil), o.Data()...))
	}
	for c := 1; c < 5; c++ {
		outs, err := prog.Forward(feeds)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		for oi, o := range outs {
			for i, v := range o.Data() {
				if v != ref[oi][i] {
					t.Fatalf("cycle %d: output %d elem %d drifted: %v != %v", c, oi, i, v, ref[oi][i])
				}
			}
		}
	}
}

// vetoReLU runs exactly like ReLU but reports InPlaceEligible false:
// the compiler must honor the veto and never alias it onto its
// producer's storage, even though the InplaceOp implementation (from
// the embedded ReLU) would permit the fold.
type vetoReLU struct{ nn.ReLU }

func (vetoReLU) InPlaceEligible() bool { return false }

// TestInPlaceEligibleVeto pins that in-place aliasing only fires when
// InPlaceEligible holds.
func TestInPlaceEligibleVeto(t *testing.T) {
	build := func(veto bool) (*graph.Graph, *graph.ParamStore) {
		g := graph.New()
		x := g.Input("image", tensor.Shape{2, 3, 8, 8})
		w := g.Param("c.w", tensor.Shape{4, 3, 3, 3})
		b := g.Param("c.b", tensor.Shape{4})
		c := g.Add("c", nn.NewConv(3, 1, 1), x, w, b)
		var op graph.Op = nn.ReLU{}
		if veto {
			op = vetoReLU{}
		}
		r := g.Add("r", op, c)
		g.SetOutput(r)
		store := graph.NewParamStore()
		store.InitFromGraph(g, rand.New(rand.NewSource(2)), nn.KaimingInit)
		return g, store
	}
	find := func(entries []graph.PlanEntry, name string) graph.PlanEntry {
		for _, e := range entries {
			if e.Name == name {
				return e
			}
		}
		t.Fatalf("no plan entry for %q", name)
		return graph.PlanEntry{}
	}

	g, store := build(false)
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := find(prog.PlanEntries(), "r"); e.FusedInto != "c" || !e.Alias {
		t.Fatalf("plain ReLU should fuse into conv, got %+v", e)
	}

	gv, storev := build(true)
	progv, err := graph.Compile(gv, storev, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := find(progv.PlanEntries(), "r"); e.FusedInto != "" || e.Alias {
		t.Fatalf("vetoed ReLU must not alias, got %+v", e)
	}
	// The veto changes placement, never values.
	feeds := graph.Feeds{"image": tensor.New(2, 3, 8, 8)}
	feeds["image"].Fill(0.5)
	a, err := prog.Forward(feeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := progv.Forward(feeds)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "veto", a, b)
}

// prefixFeeds returns feeds holding the first n samples of full's
// batch-major tensors, as views of the same data.
func prefixFeeds(full graph.Feeds, n int) graph.Feeds {
	out := graph.Feeds{}
	for name, t := range full {
		s := t.Shape()
		out[name] = tensor.Wrap(t.Data()[:t.Elems()/s[0]*n], append([]int{n}, s[1:]...)...)
	}
	return out
}

// TestCompiledForwardZeroAlloc: a warmed compiled forward performs zero
// heap allocations at every live batch — activations live in the
// pre-planned slab, kernel scratch hits the warm arena pool, the BN
// family's precast statistics are cached, and a prefix pass's step list
// is built once.
func TestCompiledForwardZeroAlloc(t *testing.T) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)

	const batch = 3
	g, store := buildCompileNet(batch, false) // eval mode
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := compileFeeds(t, g, 13)
	for n := 1; n <= batch; n++ {
		feeds := prefixFeeds(full, n)
		for i := 0; i < 5; i++ {
			if _, err := prog.Forward(feeds); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := prog.Forward(feeds); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("n=%d: warmed compiled forward allocates %.1f objects per run, want 0", n, allocs)
		}
	}
}

// TestCompiledPrefixRows: a prefix forward over the first n samples
// yields exactly the first n rows of the full-batch forward, and leaves
// the slab plan untouched.
func TestCompiledPrefixRows(t *testing.T) {
	const batch = 4
	g, store := buildCompileNet(batch, false)
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slab := prog.SlabBytes()
	full := compileFeeds(t, g, 21)
	outs, err := prog.Forward(full)
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]float32(nil), outs[1].Data()...) // logits
	classes := outs[1].Shape()[1]
	for n := 1; n < batch; n++ {
		outs, err := prog.Forward(prefixFeeds(full, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := outs[1].Shape(); !got.Equal(tensor.Shape{n, classes}) {
			t.Fatalf("n=%d: logits shape %v", n, got)
		}
		if got := outs[0].Shape(); !got.Equal(tensor.Shape{1}) {
			t.Fatalf("n=%d: loss shape %v, want [1]", n, got)
		}
		for i, v := range outs[1].Data() {
			if v != ref[i] {
				t.Fatalf("n=%d: logit %d = %x, want full-batch %x", n, i, v, ref[i])
			}
		}
	}
	if prog.SlabBytes() != slab {
		t.Fatalf("slab %d changed to %d", slab, prog.SlabBytes())
	}
}

// TestCompiledForwardRejectsBadBatch: a live batch outside [1, B],
// feeds that disagree on it, or a wrong non-batch dim is an error, never
// a panic.
func TestCompiledForwardRejectsBadBatch(t *testing.T) {
	const batch = 3
	g, store := buildCompileNet(batch, false)
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := compileFeeds(t, g, 3)
	cases := map[string]graph.Feeds{
		// No constructor builds a zero dim; an empty tensor is the n = 0
		// a caller can hand over.
		"n=0":       {"image": new(tensor.Tensor), "labels": new(tensor.Tensor)},
		"nil":       {"image": nil, "labels": full["labels"]},
		"n>B":       {"image": tensor.New(batch+1, 3, 16, 16), "labels": tensor.New(batch + 1)},
		"disagree":  {"image": prefixFeeds(full, 2)["image"], "labels": prefixFeeds(full, 1)["labels"]},
		"wrong dim": {"image": tensor.New(2, 3, 16, 8), "labels": tensor.New(2)},
		"rank":      {"image": tensor.New(2, 3*16*16), "labels": tensor.New(2)},
	}
	for name, feeds := range cases {
		if _, err := prog.Forward(feeds); err == nil {
			t.Errorf("%s: Forward accepted the feeds", name)
		}
	}
	// The program still answers correctly afterwards.
	if _, err := prog.Forward(full); err != nil {
		t.Fatal(err)
	}
}

// randomCompiledNet builds a random CNN with residual branches, modal
// ops, and a dual loss+logits output. It is a pure function of (seed,
// training): building twice yields graphs with identical topology,
// parameter names, and identically seeded dropout RNG streams.
func randomCompiledNet(seed int64, training bool) (*graph.Graph, *graph.ParamStore) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	batch := 1 + rng.Intn(4)
	c := 1 + rng.Intn(6)
	h := 8 + 4*rng.Intn(3)
	cur := g.Input("image", tensor.Shape{batch, c, h, h})
	labels := g.Input("labels", tensor.Shape{batch})
	var res *graph.Node
	layers := 3 + rng.Intn(9)
	for i := 0; i < layers; i++ {
		name := fmt.Sprintf("l%d", i)
		switch rng.Intn(9) {
		case 0, 1: // conv (+bias): k=1, 3 or 5
			out := 4 + rng.Intn(10)
			k := []int{1, 3, 5}[rng.Intn(3)]
			w := g.Param(name+".w", tensor.Shape{out, cur.Shape.C(), k, k})
			b := g.Param(name+".b", tensor.Shape{out})
			cur = g.Add(name, nn.NewConv(k, 1, k/2), cur, w, b)
		case 2:
			if cur.Shape.H() >= 4 {
				cur = g.Add(name, nn.NewMaxPool(2, 2), cur)
			} else {
				cur = g.Add(name, nn.ReLU{}, cur)
			}
		case 3:
			ch := cur.Shape.C()
			bn := nn.NewBatchNorm(nn.NewBNState(name, ch))
			bn.Training = training
			gamma := g.Param(name+".gamma", tensor.Shape{ch})
			beta := g.Param(name+".beta", tensor.Shape{ch})
			cur = g.Add(name, bn, cur, gamma, beta)
		case 4:
			ch := cur.Shape.C()
			bnr := nn.NewBNReLU(nn.NewBNState(name, ch))
			bnr.Training = training
			gamma := g.Param(name+".gamma", tensor.Shape{ch})
			beta := g.Param(name+".beta", tensor.Shape{ch})
			cur = g.Add(name, bnr, cur, gamma, beta)
		case 5:
			cur = g.Add(name, nn.ReLU{}, cur)
		case 6:
			op := &nn.Dropout{P: 0.3, Training: training, Rng: rand.New(rand.NewSource(int64(9000 + i)))}
			cur = g.Add(name, op, cur)
		case 7: // residual merge when a shape-compatible branch exists
			if res != nil && res != cur && res.Shape.Equal(cur.Shape) {
				cur = g.Add(name, &nn.Add{N: 2}, cur, res)
			} else {
				cur = g.Add(name, nn.ReLU{}, cur)
			}
		case 8:
			if cur.Shape.H() >= 4 {
				cur = g.Add(name, &nn.AvgPool{Params: tensor.ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}}, cur)
			} else {
				cur = g.Add(name, nn.ReLU{}, cur)
			}
		}
		if rng.Intn(3) == 0 {
			res = cur
		}
	}
	flat := g.Add("flat", nn.Flatten{}, cur)
	classes := 2 + rng.Intn(8)
	w := g.Param("fc.w", tensor.Shape{classes, flat.Shape[1]})
	b := g.Param("fc.b", tensor.Shape{classes})
	fc := g.Add("fc", nn.Linear{}, flat, w, b)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, fc, labels)
	g.SetOutput(loss)
	g.Outputs = append(g.Outputs, fc)
	// Half the nets carry a branch no output reads, which Compile prunes.
	if rng.Intn(2) == 0 {
		src := cur
		if res != nil && rng.Intn(2) == 0 {
			src = res
		}
		g.Add("dead", nn.ReLU{}, src)
	}

	store := graph.NewParamStore()
	store.InitFromGraph(g, rand.New(rand.NewSource(seed+1)), nn.KaimingInit)
	return g, store
}

// checkPlanInvariants verifies the static memory plan's soundness for
// one compiled program:
//
//  1. no two simultaneously-live storages overlap in the slab;
//  2. the layout's peak equals SlabBytes (the plotted peak IS the
//     mapped slab);
//  3. aliasing only arises from a legal rewrite — in-place fusion gated
//     on CanRunInplace and the InPlaceEligible veto, no-op elision, or
//     reshape views.
func checkPlanInvariants(t *testing.T, g *graph.Graph, prog *graph.CompiledProgram) {
	t.Helper()
	entries := prog.PlanEntries()
	type extent struct {
		off, bytes int64
		start, end int
	}
	storages := map[int]*extent{}
	for _, e := range entries {
		if e.Storage < 0 {
			continue
		}
		if s, ok := storages[e.Storage]; ok {
			if s.off != e.Offset || s.start != e.Start || s.end != e.End {
				t.Fatalf("storage %d: members disagree on extent: %+v vs %+v", e.Storage, s, e)
			}
			if e.Bytes > s.bytes {
				s.bytes = e.Bytes
			}
		} else {
			storages[e.Storage] = &extent{e.Offset, e.Bytes, e.Start, e.End}
		}
	}
	ids := make([]int, 0, len(storages))
	for id := range storages {
		ids = append(ids, id)
	}
	var peak int64
	for _, id := range ids {
		s := storages[id]
		if s.off+s.bytes > peak {
			peak = s.off + s.bytes
		}
		for _, id2 := range ids {
			if id2 <= id {
				continue
			}
			o := storages[id2]
			livesOverlap := s.start <= o.end && o.start <= s.end
			bytesOverlap := s.off < o.off+o.bytes && o.off < s.off+s.bytes
			if livesOverlap && bytesOverlap {
				t.Fatalf("storages %d and %d are simultaneously live and share bytes: %+v / %+v", id, id2, s, o)
			}
		}
	}
	if len(ids) > 0 && peak != prog.SlabBytes() {
		t.Fatalf("layout peak %d != slab size %d", peak, prog.SlabBytes())
	}

	for _, e := range entries {
		if e.FusedInto == "" && !e.Alias {
			continue
		}
		n := g.FindNode(e.Name)
		if n == nil {
			t.Fatalf("plan entry %q has no graph node", e.Name)
		}
		if e.FusedInto != "" {
			ip, ok := n.Op.(graph.InplaceOp)
			if !ok || !ip.CanRunInplace() {
				t.Fatalf("%q fused in place but op cannot run in place", e.Name)
			}
			if el, ok := n.Op.(interface{ InPlaceEligible() bool }); ok && !el.InPlaceEligible() {
				t.Fatalf("%q fused in place despite InPlaceEligible veto", e.Name)
			}
			continue
		}
		noop, isNoop := n.Op.(graph.NoopOp)
		resh, isResh := n.Op.(graph.ReshapeOp)
		if !(isNoop && noop.IsNoop()) && !(isResh && resh.IsReshape()) {
			t.Fatalf("%q aliases storage %d without a legal rewrite (op %s)", e.Name, e.Storage, n.Op.Kind())
		}
	}
}

// checkStepMem verifies the static memory table of the pass over n
// samples: each step's live bytes are the windows of the plan entries
// whose lifetime covers it, the slab bytes the step references never
// exceed them (measured ≤ planned), the written extent is a high water
// and nothing lies past the slab.
func checkStepMem(t *testing.T, label string, prog *graph.CompiledProgram, n int) {
	t.Helper()
	steps := prog.StepMem(n)
	if len(steps) != prog.Steps() {
		t.Fatalf("%s: %d table rows, want %d steps", label, len(steps), prog.Steps())
	}
	live := make([]int64, len(steps))
	seen := map[int]bool{}
	for _, e := range prog.PlanEntries() {
		if e.Storage < 0 || seen[e.Storage] {
			continue
		}
		seen[e.Storage] = true
		for at := e.Start; at <= e.End; at++ {
			live[at] += e.Bytes
		}
	}
	for i, s := range steps {
		if s.LiveBytes != live[i] {
			t.Fatalf("%s: step %d (%s) has %d live bytes, plan entries cover %d", label, i, s.Name, s.LiveBytes, live[i])
		}
		if s.RefBytes <= 0 || s.RefBytes > s.LiveBytes {
			t.Fatalf("%s: step %d (%s) references %d slab bytes, plan has %d live", label, i, s.Name, s.RefBytes, s.LiveBytes)
		}
		if i > 0 && s.WrittenBytes < steps[i-1].WrittenBytes {
			t.Fatalf("%s: step %d (%s) written extent %d fell below step %d's %d", label, i, s.Name, s.WrittenBytes, i-1, steps[i-1].WrittenBytes)
		}
		if s.LiveBytes > prog.SlabBytes() || s.WrittenBytes > prog.SlabBytes() {
			t.Fatalf("%s: step %d (%s) exceeds the %d-byte slab (live %d, written %d)",
				label, i, s.Name, prog.SlabBytes(), s.LiveBytes, s.WrittenBytes)
		}
	}
}

// TestMeasuredNeverExceedsPlan runs checkStepMem on every bundled
// architecture, compiled in inference mode over its logits the way the
// serving path compiles it, at every live batch n ≤ B. Each forward
// leaves the scratch arena empty: kernel workspace never outlives a
// step, so the static table is the whole footprint. A prefix pass
// covers only the samples it runs, so a larger live batch references
// strictly more of the slab, and the full batch writes all of it.
func TestMeasuredNeverExceedsPlan(t *testing.T) {
	const batch = 3
	for _, arch := range models.Architectures() {
		t.Run(arch, func(t *testing.T) {
			hw := 32
			if arch == "alexnet" {
				hw = 64 // alexnet's pool stack needs a larger input
			}
			m, err := models.Build(arch, models.Config{
				BatchSize: batch, Classes: 10, InputC: 3, InputH: hw, InputW: hw,
				WidthDiv: 16, BatchNorm: true,
			})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			store := graph.NewParamStore()
			store.InitFromGraph(m.Graph, rand.New(rand.NewSource(1)), nn.KaimingInit)
			m.Graph.SetTraining(false)
			m.Graph.SetOutput(m.Logits)
			prog, err := graph.Compile(m.Graph, store, graph.CompileOptions{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			var prevRef int64
			for n := 1; n <= batch; n++ {
				if _, err := prog.Forward(graph.Feeds{"image": tensor.New(n, 3, hw, hw)}); err != nil {
					t.Fatalf("n=%d forward: %v", n, err)
				}
				if inUse := prog.Arena().Stats().InUseBytes; inUse != 0 {
					t.Fatalf("n=%d: %d scratch bytes still in use after the forward", n, inUse)
				}
				checkStepMem(t, fmt.Sprintf("n=%d", n), prog, n)
				steps := prog.StepMem(n)
				var ref int64
				for _, s := range steps {
					ref += s.RefBytes
				}
				if w := steps[len(steps)-1].WrittenBytes; n == batch && w != prog.SlabBytes() {
					t.Fatalf("full batch writes up to %d bytes, want the %d-byte slab", w, prog.SlabBytes())
				}
				if ref <= prevRef {
					t.Fatalf("n=%d references %d slab bytes over the pass, no more than n=%d's %d", n, ref, n-1, prevRef)
				}
				prevRef = ref
			}
		})
	}
}

// runCompiledSeed builds a random net twice, checks plan invariants
// and the static memory table of every live batch, and asserts compiled
// outputs are bit-identical to the interpreted executor's.
func runCompiledSeed(t *testing.T, seed int64, training bool) {
	t.Helper()
	gi, store := randomCompiledNet(seed, training)
	gc, _ := randomCompiledNet(seed, training)

	ex, err := graph.NewExecutor(gi, store)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	ex.UseArena(tensor.NewArena())
	feedsI := compileFeeds(t, gi, seed*31+7)
	ref, err := ex.Forward(feedsI)
	if err != nil {
		t.Fatalf("seed %d: interpreted: %v", seed, err)
	}

	prog, err := graph.Compile(gc, store, graph.CompileOptions{})
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	checkPlanInvariants(t, gc, prog)
	for _, e := range prog.PlanEntries() {
		if e.Name == "dead" {
			t.Fatalf("seed %d: the unread branch was lowered: %+v", seed, e)
		}
	}
	for n := 1; n <= gc.FindNode("image").Shape[0]; n++ {
		checkStepMem(t, fmt.Sprintf("seed %d n=%d", seed, n), prog, n)
	}
	outs, err := prog.Forward(compileFeeds(t, gc, seed*31+7))
	if err != nil {
		t.Fatalf("seed %d: compiled: %v", seed, err)
	}
	assertBitIdentical(t, fmt.Sprintf("seed %d training=%v", seed, training), ref, outs)
}

// TestCompiledPlanInvariantsSweep runs the invariant + bit-identity
// check over many random topologies in both modes.
func TestCompiledPlanInvariantsSweep(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		runCompiledSeed(t, seed, false)
		runCompiledSeed(t, seed, true)
	}
}

// FuzzCompiledPlan fuzzes random DAGs through Compile, asserting the
// static plan never aliases two simultaneously-live buffers, the peak
// offset equals the slab size, in-place aliasing respects the
// InPlaceEligible gate, and the outputs stay bit-identical to the
// interpreted executor (mirrors hmms's pipeline fuzz).
func FuzzCompiledPlan(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, training bool) {
		runCompiledSeed(t, seed, training)
	})
}
