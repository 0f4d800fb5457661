package core

import (
	"fmt"
	"math"
	"math/rand"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// patchwiseOp is implemented by operations that may be applied to each
// spatial patch independently (ReLU, BN, dropout, residual add).
type patchwiseOp interface {
	PatchwiseSafe() bool
}

// Config parameterizes the Split-CNN transformation.
type Config struct {
	// Depth is the fraction of convolution layers to split, measured
	// from the network input (§5.2's "splitting depth").
	Depth float64
	// NH, NW are the number of spatial patches along height and width;
	// the paper's (h, w) 2-tuple. NH*NW is the "number of splits".
	NH, NW int
	// Policy picks the input split point within [lb, ub]; the default
	// PolicyMidpoint balances receptive-field loss between patches.
	Policy BoundaryPolicy
	// Stochastic enables §3.3's per-minibatch random split boundaries.
	Stochastic bool
	// Omega is the stochastic wiggle room ω ∈ [0, 0.5); the paper uses
	// the untuned constant 0.2.
	Omega float64
	// Rng drives stochastic boundary sampling (required when Stochastic).
	Rng *rand.Rand
}

// Result describes a completed transformation.
type Result struct {
	// Graph is the rewritten Split-CNN computation graph. It references
	// the same parameter names (and BN states) as the original, so both
	// resolve against one ParamStore.
	Graph *graph.Graph
	// SplitConvs / TotalConvs report the realized splitting depth.
	SplitConvs, TotalConvs int
	// RegionOps lists the names of the op nodes that were split.
	RegionOps []string
	// JoinNames lists the inserted ConcatPatches nodes.
	JoinNames []string
}

// RealizedDepth returns the fraction of convolution layers split.
func (r *Result) RealizedDepth() float64 {
	if r.TotalConvs == 0 {
		return 0
	}
	return float64(r.SplitConvs) / float64(r.TotalConvs)
}

type spatialScheme struct {
	h, w Scheme
}

// Split transforms a regular CNN computation graph into a Split-CNN
// (§3): the first cfg.Depth fraction of convolution layers (plus the
// window/pointwise operations between them) is re-instantiated once per
// spatial patch with per-patch padding, preceded by patch extraction and
// followed by a patch join. The transformed graph shares parameter
// names and BN state with the original, so one ParamStore serves both.
func Split(g *graph.Graph, cfg Config) (res *Result, err error) {
	if cfg.NH < 1 || cfg.NW < 1 {
		return nil, fmt.Errorf("core.Split: invalid patch grid %dx%d", cfg.NH, cfg.NW)
	}
	if cfg.Depth < 0 || cfg.Depth > 1 {
		return nil, fmt.Errorf("core.Split: depth %v outside [0, 1]", cfg.Depth)
	}
	if cfg.Stochastic && cfg.Rng == nil {
		return nil, fmt.Errorf("core.Split: stochastic splitting requires an Rng")
	}
	topo, err := g.Topo()
	if err != nil {
		return nil, fmt.Errorf("core.Split: %w", err)
	}
	// graph.Add panics on shape errors; surface them as errors here,
	// they indicate an invalid split configuration for this graph.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core.Split: %v", r)
		}
	}()

	totalConvs := 0
	for _, n := range topo {
		if n.Kind == graph.KindOp && n.Op.Kind() == "conv" {
			totalConvs++
		}
	}
	target := int(math.Round(cfg.Depth * float64(totalConvs)))
	if target == 0 || cfg.NH*cfg.NW == 1 {
		return &Result{Graph: g, TotalConvs: totalConvs}, nil
	}

	region, splitConvs := selectRegion(topo, target)
	if len(region) == 0 {
		return &Result{Graph: g, TotalConvs: totalConvs}, nil
	}
	schemes, sources, err := assignSchemes(g, topo, region, cfg)
	if err != nil {
		return nil, err
	}
	return build(g, topo, region, schemes, sources, cfg, splitConvs, totalConvs)
}

// selectRegion grows a prefix-closed set of splittable op nodes from the
// graph inputs until the conv budget is exhausted.
func selectRegion(topo []*graph.Node, budget int) (map[int]bool, int) {
	region := make(map[int]bool)
	convs := 0
	for _, n := range topo {
		if n.Kind != graph.KindOp {
			continue
		}
		if !splittable(n.Op) {
			continue
		}
		ok := true
		for _, in := range n.Inputs {
			switch in.Kind {
			case graph.KindParam, graph.KindInput:
			case graph.KindOp:
				if !region[in.ID] {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		if n.Op.Kind() == "conv" {
			if convs == budget {
				continue
			}
			convs++
		}
		region[n.ID] = true
	}
	return region, convs
}

func splittable(op graph.Op) bool {
	if _, ok := op.(graph.WindowOp); ok {
		return true
	}
	if p, ok := op.(patchwiseOp); ok {
		return p.PatchwiseSafe()
	}
	return false
}

// boundaryConstraint accumulates the legal placements of one split
// boundary across all consumers of a tensor: pointwise consumers pin it
// exactly, k >= s windows constrain it to [lb, ub] (Equations 1-2), and
// k < s windows accept any placement (footnote 1) while proposing lb as
// a fallback.
type boundaryConstraint struct {
	lo, hi      int
	constrained bool
	fallback    int
	hasFallback bool
}

func (b *boundaryConstraint) narrow(lo, hi int) bool {
	if !b.constrained {
		b.lo, b.hi, b.constrained = lo, hi, true
		return true
	}
	b.lo = max(b.lo, lo)
	b.hi = min(b.hi, hi)
	return b.lo <= b.hi
}

func (b *boundaryConstraint) propose(v int) {
	if !b.hasFallback {
		b.fallback, b.hasFallback = v, true
	}
}

func (b *boundaryConstraint) pick(policy BoundaryPolicy) int {
	if !b.constrained {
		return b.fallback
	}
	switch policy {
	case PolicyLower:
		return b.lo
	case PolicyUpper:
		return b.hi
	default:
		return (b.lo + b.hi) / 2
	}
}

// constrain folds into cons the requirement a consumer with output
// scheme cs and window w (K = 0 for a pointwise consumer) places on the
// split boundaries of its input: exact for pointwise, [lb, ub] for
// k >= s, the fallback lb for k < s.
func constrain(cons []boundaryConstraint, cs Scheme, w tensor.Window1D) error {
	for i := 1; i < len(cs); i++ {
		b := &cons[i-1]
		lb, ub := w.LowerBound(cs[i]), w.UpperBound(cs[i])
		switch {
		case w.K == 0:
			lb, ub = cs[i], cs[i]
		case ub < lb: // k < s: fully flexible, propose the exact crop point
			b.propose(lb)
			continue
		}
		if !b.narrow(lb, ub) {
			return fmt.Errorf("scheme conflict at boundary %d: needs [%d, %d]", i, lb, ub)
		}
	}
	return nil
}

// negotiate resolves one dimension's input scheme for tensor length l
// from the constraints collected across consumers.
func negotiate(cons []boundaryConstraint, l int, policy BoundaryPolicy) (Scheme, error) {
	s := make(Scheme, len(cons)+1)
	for i := range cons {
		if !cons[i].constrained && !cons[i].hasFallback {
			return nil, fmt.Errorf("boundary %d has no constraint and no fallback", i+1)
		}
		s[i+1] = cons[i].pick(policy)
	}
	if err := s.Validate(l); err != nil {
		return nil, err
	}
	return s, nil
}

// assignSchemes walks the region in reverse topological order assigning
// each region node (and each non-param external source feeding the
// region) its output split scheme. Frontier nodes — region nodes with no
// in-region consumer — receive the generated join scheme; interior nodes
// receive a scheme negotiated from the interval constraints of all their
// region consumers (§3.2's multi-layer condition O^m = I^{m+1});
// an empty intersection is a genuine conflict and an error.
func assignSchemes(g *graph.Graph, topo []*graph.Node, region map[int]bool, cfg Config) (map[int]*spatialScheme, map[int]*spatialScheme, error) {
	consumers := g.Consumers()
	schemes := make(map[int]*spatialScheme)
	sources := make(map[int]*spatialScheme)

	requirement := func(n *graph.Node) (*spatialScheme, error) {
		consH := make([]boundaryConstraint, cfg.NH-1)
		consW := make([]boundaryConstraint, cfg.NW-1)
		any := false
		for _, c := range consumers[n.ID] {
			if !region[c.ID] {
				continue
			}
			// Window ops read their data at input 0; a tensor feeding a
			// window op's non-data slot would be a parameter, which
			// never reaches here.
			cs := schemes[c.ID]
			var wh, ww tensor.Window1D
			if w, ok := c.Op.(graph.WindowOp); ok {
				wh, ww = w.Window().Rows(), w.Window().Cols()
			}
			if err := constrain(consH, cs.h, wh); err != nil {
				return nil, fmt.Errorf("%s (H), demanded by %s: %w", n, c, err)
			}
			if err := constrain(consW, cs.w, ww); err != nil {
				return nil, fmt.Errorf("%s (W), demanded by %s: %w", n, c, err)
			}
			any = true
		}
		if !any {
			return nil, nil
		}
		h, err := negotiate(consH, n.Shape.H(), cfg.Policy)
		if err != nil {
			return nil, fmt.Errorf("%s (H): %w", n, err)
		}
		w, err := negotiate(consW, n.Shape.W(), cfg.Policy)
		if err != nil {
			return nil, fmt.Errorf("%s (W): %w", n, err)
		}
		return &spatialScheme{h: h, w: w}, nil
	}

	gen := func(l, n int) (Scheme, error) {
		if cfg.Stochastic {
			return StochasticScheme(l, n, cfg.Omega, cfg.Rng)
		}
		return EqualScheme(l, n)
	}

	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if region[n.ID] {
			req, err := requirement(n)
			if err != nil {
				return nil, nil, err
			}
			if req == nil { // frontier: generate the join scheme
				h, err := gen(n.Shape.H(), cfg.NH)
				if err != nil {
					return nil, nil, fmt.Errorf("join scheme for %s: %w", n, err)
				}
				w, err := gen(n.Shape.W(), cfg.NW)
				if err != nil {
					return nil, nil, fmt.Errorf("join scheme for %s: %w", n, err)
				}
				req = &spatialScheme{h: h, w: w}
			}
			schemes[n.ID] = req
			continue
		}
		// External source feeding region nodes (e.g. the image input).
		if n.Kind == graph.KindParam {
			continue
		}
		feedsRegion := false
		for _, c := range consumers[n.ID] {
			if region[c.ID] {
				feedsRegion = true
			}
		}
		if !feedsRegion {
			continue
		}
		req, err := requirement(n)
		if err != nil {
			return nil, nil, err
		}
		if req == nil {
			return nil, nil, fmt.Errorf("source %s feeds region but no scheme derived", n)
		}
		sources[n.ID] = req
	}
	return schemes, sources, nil
}

// build reconstructs the graph with the region instantiated per patch.
func build(g *graph.Graph, topo []*graph.Node, region map[int]bool, schemes, sources map[int]*spatialScheme, cfg Config, splitConvs, totalConvs int) (*Result, error) {
	nPatch := cfg.NH * cfg.NW
	out := graph.New()
	res := &Result{Graph: out, SplitConvs: splitConvs, TotalConvs: totalConvs}

	mapped := make(map[int]*graph.Node)    // old ID -> new node (unsplit world)
	patches := make(map[int][]*graph.Node) // old ID -> per-patch new nodes
	params := make(map[string]*graph.Node)
	joins := make(map[int]*graph.Node)

	getParam := func(n *graph.Node) *graph.Node {
		if p, ok := params[n.Name]; ok {
			return p
		}
		p := out.Param(n.Name, n.Shape)
		params[n.Name] = p
		return p
	}

	// sourcePatches lazily creates the ExtractPatch nodes for an
	// external source.
	sourcePatches := func(n *graph.Node) []*graph.Node {
		if ps, ok := patches[n.ID]; ok {
			return ps
		}
		sch := sources[n.ID]
		base := mapped[n.ID]
		ps := make([]*graph.Node, 0, nPatch)
		for i := 0; i < cfg.NH; i++ {
			for j := 0; j < cfg.NW; j++ {
				op := &nn.ExtractPatch{H0: sch.h[i], H1: sch.h[i] + sch.h.PartLen(i, n.Shape.H()),
					W0: sch.w[j], W1: sch.w[j] + sch.w.PartLen(j, n.Shape.W())}
				ps = append(ps, out.Add(fmt.Sprintf("%s.patch%d_%d", n.Name, i, j), op, base))
			}
		}
		patches[n.ID] = ps
		return ps
	}

	// join returns (creating on demand) the ConcatPatches node
	// reassembling a region node for unsplit consumers.
	join := func(n *graph.Node) *graph.Node {
		if j, ok := joins[n.ID]; ok {
			return j
		}
		op := &nn.ConcatPatches{NH: cfg.NH, NW: cfg.NW}
		j := out.Add(n.Name+".join", op, patches[n.ID]...)
		joins[n.ID] = j
		res.JoinNames = append(res.JoinNames, j.Name)
		return j
	}

	// patchInput resolves input `in` of a region op for patch p.
	patchInput := func(in *graph.Node, p int) *graph.Node {
		switch {
		case in.Kind == graph.KindParam:
			return getParam(in)
		case region[in.ID]:
			return patches[in.ID][p]
		default:
			return sourcePatches(in)[p]
		}
	}

	// Construction order is execution order (the graph is executed and
	// memory-planned in insertion order), so the patch chains are
	// emitted serially — patch 0's entire multi-layer chain, then patch
	// 1's, and so on. This is what breaks the memory bottleneck "into
	// smaller pieces and spreads them across the forward propagation
	// pass" (§2.4): while patch p+1 computes, HMMS offloads patch p's
	// intermediate results, and only one patch-sized convolution
	// workspace is ever live (§6.3).
	for _, n := range topo {
		if n.Kind == graph.KindInput {
			mapped[n.ID] = out.Input(n.Name, n.Shape)
		}
	}
	// Per-patch paddings depend only on the node; compute them once.
	nodePads := make(map[int][]tensor.Pad2D)
	for _, n := range topo {
		if n.Kind != graph.KindOp || !region[n.ID] {
			continue
		}
		var inSch *spatialScheme
		if len(n.Inputs) > 0 {
			src := n.Inputs[0]
			if s, ok := schemes[src.ID]; ok {
				inSch = s
			} else {
				inSch = sources[src.ID]
			}
		}
		nodePads[n.ID] = patchPads(n, schemes[n.ID], inSch, cfg)
	}
	for p := 0; p < nPatch; p++ {
		for _, n := range topo {
			if n.Kind != graph.KindOp || !region[n.ID] {
				continue
			}
			pads := nodePads[n.ID]
			if p == 0 {
				res.RegionOps = append(res.RegionOps, n.Name)
				patches[n.ID] = make([]*graph.Node, nPatch)
			}
			ins := make([]*graph.Node, len(n.Inputs))
			for k, in := range n.Inputs {
				ins[k] = patchInput(in, p)
			}
			op := n.Op
			if pads != nil {
				op = n.Op.(graph.WindowOp).WithPad(pads[p])
			}
			patches[n.ID][p] = out.Add(fmt.Sprintf("%s.p%d", n.Name, p), op, ins...)
		}
	}
	for _, n := range topo {
		if n.Kind != graph.KindOp || region[n.ID] {
			continue
		}
		ins := make([]*graph.Node, len(n.Inputs))
		for k, in := range n.Inputs {
			switch {
			case in.Kind == graph.KindParam:
				ins[k] = getParam(in)
			case region[in.ID]:
				ins[k] = join(in)
			default:
				ins[k] = mapped[in.ID]
			}
		}
		mapped[n.ID] = out.Add(n.Name, n.Op, ins...)
	}

	outs := make([]*graph.Node, len(g.Outputs))
	for i, o := range g.Outputs {
		switch {
		case region[o.ID]:
			outs[i] = join(o)
		default:
			outs[i] = mapped[o.ID]
		}
	}
	out.SetOutput(outs...)
	return res, nil
}

// patchPads computes, for a window op whose output scheme is sch and
// whose (negotiated) input scheme is in, the per-patch 2-D padding in
// row-major patch order; nil for pointwise ops.
func patchPads(n *graph.Node, sch, in *spatialScheme, cfg Config) []tensor.Pad2D {
	w, ok := n.Op.(graph.WindowOp)
	if !ok {
		return nil
	}
	p, x := w.Window(), n.Inputs[0].Shape
	top, bottom := axisPads(p.Rows(), in.h, sch.h, x.H())
	left, right := axisPads(p.Cols(), in.w, sch.w, x.W())
	out := make([]tensor.Pad2D, 0, cfg.NH*cfg.NW)
	for i := 0; i < cfg.NH; i++ {
		for j := 0; j < cfg.NW; j++ {
			out = append(out, tensor.Pad2D{Top: top[i], Bottom: bottom[i], Left: left[j], Right: right[j]})
		}
	}
	return out
}

// axisPads returns each patch's begin and end padding (Equation 5)
// along one axis of input length l that the matching schemes in and
// out split: patch i of the input, so padded, yields exactly patch i
// of the output.
func axisPads(w tensor.Window1D, in, out Scheme, l int) (b, e []int) {
	lout := w.OutSize(l)
	b, e = make([]int, len(out)), make([]int, len(out))
	for i := range out {
		b[i], e[i] = w.BandPad(out[i], out[i]+out.PartLen(i, lout), in[i], in[i]+in.PartLen(i, l), l)
	}
	return b, e
}
