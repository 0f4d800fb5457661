package hmms_test

import (
	"testing"

	"splitcnn/internal/costmodel"
	"splitcnn/internal/graph"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// tinyGraph builds conv -> relu -> pool -> flatten -> linear -> loss.
func tinyGraph() *graph.Graph {
	g := graph.New()
	x := g.Input("image", tensor.Shape{4, 3, 8, 8})
	labels := g.Input("labels", tensor.Shape{4})
	w := g.Param("c1.w", tensor.Shape{8, 3, 3, 3})
	b := g.Param("c1.b", tensor.Shape{8})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w, b)
	r1 := g.Add("r1", nn.ReLU{}, c1)
	p1 := g.Add("p1", nn.NewMaxPool(2, 2), r1)
	f := g.Add("flat", nn.Flatten{}, p1)
	wf := g.Param("fc.w", tensor.Shape{2, 128})
	bf := g.Param("fc.b", tensor.Shape{2})
	fc := g.Add("fc", nn.Linear{}, f, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, fc, labels)
	g.SetOutput(loss)
	return g
}

func TestBuildProgramStructure(t *testing.T) {
	g := tinyGraph()
	p, err := hmms.BuildProgram(g, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumForward != 6 {
		t.Fatalf("forward ops %d, want 6", p.NumForward)
	}
	if len(p.Ops) != 12 {
		t.Fatalf("total ops %d, want 12 (mirrored backward)", len(p.Ops))
	}
	// Backward order is the reverse of forward order (§4.1).
	for i := 0; i < p.NumForward; i++ {
		f := p.Ops[i]
		b := p.Ops[len(p.Ops)-1-i]
		if b.Name != f.Name+".bwd" {
			t.Fatalf("backward op %d is %q, want %q", len(p.Ops)-1-i, b.Name, f.Name+".bwd")
		}
		if f.Phase != hmms.Forward || b.Phase != hmms.Backward {
			t.Fatal("phase labels wrong")
		}
	}
	// Every op has a positive time.
	for _, op := range p.Ops {
		if op.Time <= 0 {
			t.Fatalf("op %s has time %v", op.Name, op.Time)
		}
	}
}

// TestBuildProgramRejectsForeignOutput: an output node that belongs to
// another graph is an error, not an index into this graph's tables.
func TestBuildProgramRejectsForeignOutput(t *testing.T) {
	g := tinyGraph()
	g.SetOutput(tinyGraph().Nodes[len(g.Nodes)-1])
	if _, err := hmms.BuildProgram(g, costmodel.P100()); err == nil {
		t.Fatal("output from another graph accepted")
	}
	big := models.VGG19ImageNet(1).Graph
	g.SetOutput(big.Nodes[len(big.Nodes)-1])
	if _, err := hmms.BuildProgram(g, costmodel.P100()); err == nil {
		t.Fatal("output with an ID past the graph accepted")
	}
}

func TestProgramStashSemantics(t *testing.T) {
	g := tinyGraph()
	p, err := hmms.BuildProgram(g, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	stashed := map[string]bool{}
	for _, ti := range p.Tensors {
		if ti.Stashed {
			stashed[ti.Name] = true
		}
	}
	// Conv input (the image) and weights... weights are params (not
	// "stashed"); relu output is needed by its own backward and by the
	// pool backward; pool input likewise; linear input and weight too.
	for _, want := range []string{"image", "r1", "flat", "labels"} {
		if !stashed[want] {
			t.Fatalf("%q should be stashed (stashed set: %v)", want, stashed)
		}
	}
	// The conv output feeds only the ReLU, whose backward needs just its
	// own output — c1 must NOT be stashed (in-place eligibility). The
	// pool output is likewise not stashed: like cuDNN, pooling backward
	// re-reads its *input* (r1).
	if stashed["c1"] || stashed["p1"] {
		t.Fatal("conv/pool outputs should not be stashed")
	}
}

func TestProfileForwardCumulativeCurves(t *testing.T) {
	m := models.VGG19ImageNet(8)
	p, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	prof := p.ProfileForward()
	if len(prof) != p.NumForward {
		t.Fatalf("profile rows %d, want %d", len(prof), p.NumForward)
	}
	var cg, co int64
	for i, row := range prof {
		cg += row.GeneratedBytes
		co += row.OffloadableBytes
		if row.CumGenerated != cg || row.CumOffloadable != co {
			t.Fatalf("row %d cumulative mismatch", i)
		}
		if row.Time <= 0 {
			t.Fatalf("row %d has non-positive time", i)
		}
	}
	if cg != p.StashedBytes() {
		t.Fatalf("cumulative generated %d != stashed bytes %d", cg, p.StashedBytes())
	}
}

// TestOffloadLimitOrdering locks in the Figure 1 conclusion: VGG-19 can
// offload everything; ResNet-18 cannot; ResNet-50 is the most
// constrained; and the memory-efficient (BN-recompute) ResNet-18
// variant is strictly more offloadable than the vanilla one (§6.3).
func TestOffloadLimitOrdering(t *testing.T) {
	dev := costmodel.P100()
	lim := func(m *models.Model) float64 {
		p, err := hmms.BuildProgram(m.Graph, dev)
		if err != nil {
			t.Fatal(err)
		}
		return p.TheoreticalOffloadLimit()
	}
	vgg := lim(models.VGG19ImageNet(64))
	r18 := lim(models.ResNet18ImageNet(64))
	r50 := lim(models.ResNet50ImageNet(64))
	r18me := lim(models.ResNet18(models.Config{
		BatchSize: 64, Classes: 1000, InputC: 3, InputH: 224, InputW: 224, BNRecompute: true,
	}))
	if vgg < 0.99 {
		t.Fatalf("VGG-19 limit %.2f, want ~1.0 (fully offloadable)", vgg)
	}
	if r18 >= 0.99 {
		t.Fatalf("ResNet-18 limit %.2f, want < 1", r18)
	}
	if r50 >= r18 {
		t.Fatalf("ResNet-50 limit %.2f should be below ResNet-18's %.2f", r50, r18)
	}
	if r18me <= r18 {
		t.Fatalf("BN recompute should raise the limit: %.2f vs %.2f", r18me, r18)
	}
}

func TestStorageAssignmentOptimizations(t *testing.T) {
	g := tinyGraph()
	p, err := hmms.BuildProgram(g, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	a := hmms.AssignStorage(p, hmms.DefaultStorageOpts())
	if a.InPlaceReLUCount != 1 {
		t.Fatalf("in-place ReLU fired %d times, want 1", a.InPlaceReLUCount)
	}
	// conv output and relu output share a TSO.
	var convOut, reluOut hmms.TensorID = -1, -1
	for _, ti := range p.Tensors {
		switch ti.Name {
		case "c1":
			convOut = ti.ID
		case "r1":
			reluOut = ti.ID
		}
	}
	if a.TensorTSO[convOut] != a.TensorTSO[reluOut] {
		t.Fatal("in-place ReLU did not share the TSO")
	}
	// Disabled optimization keeps them apart.
	a2 := hmms.AssignStorage(p, hmms.StorageOpts{})
	if a2.TensorTSO[convOut] == a2.TensorTSO[reluOut] {
		t.Fatal("optimization fired while disabled")
	}
	if a2.InPlaceReLUCount != 0 {
		t.Fatal("count nonzero while disabled")
	}
	// Every tensor maps to a valid TSO and every TSO is at least as
	// large as its largest member.
	for tid, tsoID := range a.TensorTSO {
		tso := a.TSOs[tsoID]
		if tso.Bytes < p.Tensors[tid].Bytes {
			t.Fatalf("TSO %d smaller than member %s", tsoID, p.Tensors[tid].Name)
		}
	}
}

// TestSummationErrorSharing builds a residual add and verifies the
// error-term TSO sharing of §4.2.
func TestSummationErrorSharing(t *testing.T) {
	g := graph.New()
	x := g.Input("image", tensor.Shape{2, 4, 8, 8})
	w1 := g.Param("c1.w", tensor.Shape{4, 4, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{4})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1)
	w2 := g.Param("c2.w", tensor.Shape{4, 4, 3, 3})
	b2 := g.Param("c2.b", tensor.Shape{4})
	c2 := g.Add("c2", nn.NewConv(3, 1, 1), c1, w2, b2)
	add := g.Add("add", &nn.Add{N: 2}, c2, c1)
	out := g.Add("r", nn.ReLU{}, add)
	g.SetOutput(out)

	p, err := hmms.BuildProgram(g, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	a := hmms.AssignStorage(p, hmms.DefaultStorageOpts())
	// c2's gradient is written only by add.bwd, so it may share the TSO
	// of add's own gradient; c1's gradient is also accumulated by
	// c2.bwd, so it must not share.
	var gAdd, gC2, gC1 hmms.TensorID = -1, -1, -1
	for _, ti := range p.Tensors {
		switch ti.Name {
		case "add.grad":
			gAdd = ti.ID
		case "c2.grad":
			gC2 = ti.ID
		case "c1.grad":
			gC1 = ti.ID
		}
	}
	if gAdd < 0 || gC2 < 0 || gC1 < 0 {
		t.Fatal("gradient tensors missing")
	}
	if a.TensorTSO[gC2] != a.TensorTSO[gAdd] {
		t.Fatal("summation error term should share the output error TSO")
	}
	if a.TensorTSO[gC1] == a.TensorTSO[gAdd] {
		t.Fatal("accumulated gradient must not share the summation TSO")
	}
	if a.SharedErrorCount != 1 {
		t.Fatalf("shared-error count %d, want 1", a.SharedErrorCount)
	}
}
