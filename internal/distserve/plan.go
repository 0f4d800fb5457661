// Package distserve is the distributed split-inference subsystem: it
// runs the spatially-shardable prefix of a model — the chain of
// window-based and pointwise ops hanging off the image input — across
// multiple worker processes, each owning a contiguous band of output
// rows per stage and exchanging halo (boundary) rows with the neighbors
// that own adjacent bands, then gathers the final prefix feature map on
// a router that finishes the graph tail locally.
//
// Unlike the paper's §3.1 transformation (internal/core), which pads
// each patch with zeros and therefore perturbs boundary values, the
// halo exchange is exact: every shard convolves over the very rows the
// unsplit operator would read, so the distributed result is the
// single-process result. Both take their window arithmetic (Equations
// 1, 2 and 5) from tensor.Window1D. The convolution kernel is the
// implicit GEMM, whose bits depend on neither the batch nor the band of
// rows a shard computes, so any cut is exact. Partition rounds interior
// cuts down to an even row anyway, for halo traffic: at gang 2 the deep
// two-row stages then land wholly on one shard and exchange nothing.
package distserve

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/tensor"
)

// Range is a half-open interval [Lo, Hi) of rows.
type Range struct{ Lo, Hi int }

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Empty reports whether the range holds no rows.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

func intersect(a, b Range) Range {
	lo, hi := max(a.Lo, b.Lo), min(a.Hi, b.Hi)
	if hi < lo {
		hi = lo
	}
	return Range{lo, hi}
}

// patchwiseOp mirrors the patch-safety interface the §3.1 transform
// keys on (internal/core) for pointwise stages.
type patchwiseOp interface{ PatchwiseSafe() bool }

// Stage is one shardable op of the prefix chain: a window op (conv,
// max/avg pool) or a pointwise op (ReLU, BN, dropout) applied to NCHW
// feature maps. Row ownership is expressed in *output* rows; InputRange
// maps them back to the input rows (of the previous stage's output)
// the op's windows read.
type Stage struct {
	Name string
	Kind string
	node *graph.Node

	win      tensor.ConvParams // a unit window for pointwise stages
	windowed bool

	InC, InH, InW    int
	OutC, OutH, OutW int
}

// InputRange returns the *virtual* input interval stage windows read to
// produce output rows out: [LowerBound(Lo), UpperBound(Hi)) of the
// op's row window (Equations 1 and 2). It may extend past [0, InH);
// evalStage pads the clipped band with Window1D.BandPad — the §3.1
// per-patch padding core.Split uses, but against real neighbor rows
// instead of zeros.
func (s *Stage) InputRange(out Range) Range {
	if out.Empty() {
		return Range{}
	}
	return Range{s.win.Rows().LowerBound(out.Lo), s.win.Rows().UpperBound(out.Hi)}
}

// ClipInput clips a virtual input interval to the real rows [0, InH).
func (s *Stage) ClipInput(r Range) Range {
	return intersect(r, Range{0, s.InH})
}

// Plan is the sharding geometry of one model: the extracted prefix
// chain plus the image input description and the classifier width.
type Plan struct {
	Stages []*Stage
	// Tail is the graph node name whose value the router overrides to
	// resume the non-shardable remainder (== last stage's name).
	Tail string
	// InC/InH/InW is the image geometry; Classes the logits width.
	InC, InH, InW int
	Classes       int

	mu     sync.Mutex
	owners map[int][][]Range // cached Owners tables per shard count
	halos  map[int]*HaloTable
}

// NewPlan extracts the shardable prefix from a materialized model: walk
// from the image input along the unique-consumer chain accepting window
// ops and patchwise-safe pointwise ops whose only other inputs are
// parameters. Residual adds (two op inputs), flatten (non-NCHW output)
// and global pooling end the chain. VGG/AlexNet shard their entire
// convolutional trunk; ResNets shard the stem before the first residual
// join — shallower, but still the rows-dominant layers.
func NewPlan(m *models.Model) (*Plan, error) {
	in := m.Input
	if len(in.Shape) != 4 {
		return nil, fmt.Errorf("distserve: input %q is not NCHW (%v)", in.Name, in.Shape)
	}
	if in.Shape.N() != 1 {
		return nil, fmt.Errorf("distserve: plan wants a batch-1 graph, input is %v", in.Shape)
	}
	p := &Plan{
		InC: in.Shape.C(), InH: in.Shape.H(), InW: in.Shape.W(),
		Classes: m.Classes,
		owners:  make(map[int][][]Range),
		halos:   make(map[int]*HaloTable),
	}
	cons := m.Graph.Consumers()
	cur := in
	for {
		cs := cons[cur.ID]
		if len(cs) != 1 {
			break // chain forks (residual reuse) or dead-ends
		}
		n := cs[0]
		if len(n.Inputs) == 0 || n.Inputs[0] != cur || len(n.Shape) != 4 {
			break
		}
		paramsOnly := true
		for _, src := range n.Inputs[1:] {
			if src.Kind != graph.KindParam {
				paramsOnly = false
				break
			}
		}
		if !paramsOnly {
			break // e.g. residual Add joining two op values
		}
		st := &Stage{
			Name: n.Name, Kind: n.Op.Kind(), node: n,
			InC: cur.Shape.C(), InH: cur.Shape.H(), InW: cur.Shape.W(),
			OutC: n.Shape.C(), OutH: n.Shape.H(), OutW: n.Shape.W(),
			win: tensor.ConvParams{KH: 1, KW: 1, SH: 1, SW: 1},
		}
		if w, ok := n.Op.(graph.WindowOp); ok {
			st.win, st.windowed = w.Window(), true
		} else if pw, ok := n.Op.(patchwiseOp); !ok || !pw.PatchwiseSafe() {
			break // not shardable (flatten, gap, linear, ...)
		} else if st.InH != st.OutH || st.InW != st.OutW {
			break // pointwise ops must preserve spatial geometry
		}
		p.Stages = append(p.Stages, st)
		cur = n
	}
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("distserve: model %q has no shardable prefix (input consumer is not a window/pointwise chain)", m.Name)
	}
	p.Tail = p.Stages[len(p.Stages)-1].Name
	return p, nil
}

// Last returns the final stage (the gather point).
func (p *Plan) Last() *Stage { return p.Stages[len(p.Stages)-1] }

// Partition cuts h rows into n contiguous ranges of near-equal size
// whose interior cut points are rounded down to even rows. The kernel
// is exact at any cut; the rounding is for halo bytes. A two-row stage
// at gang 2 then sits wholly on the second shard instead of one row on
// each, so it exchanges no halo: serving VGG-19 at gang 2 fetches
// 10,752 halo bytes per image with the rounding and 12,032 without.
// Ranges may be empty when h < 2n (deep pyramid stages); empty shards
// simply fetch everything they need from the owners.
func Partition(h, n int) []Range {
	if n < 1 {
		n = 1
	}
	cut := func(i int) int {
		if i <= 0 {
			return 0
		}
		if i >= n {
			return h
		}
		return (h * i / n) &^ 1
	}
	out := make([]Range, n)
	for i := range out {
		out[i] = Range{cut(i), cut(i + 1)}
	}
	return out
}

// Owners returns the per-stage row-ownership table for n shards:
// owners[i][s] is the band of stage i's *output* rows shard s computes.
// Each stage's output height is partitioned independently, so ownership
// tracks the shrinking spatial pyramid. Tables are cached per n.
func (p *Plan) Owners(n int) [][]Range {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t, ok := p.owners[n]; ok {
		return t
	}
	t := make([][]Range, len(p.Stages))
	for i, st := range p.Stages {
		t[i] = Partition(st.OutH, n)
	}
	p.owners[n] = t
	return t
}

// ImageRange returns the band of raw image rows shard s needs to start
// stage 0 — the router scatters exactly these rows to each worker, so
// stage 0 needs no halo exchange at all.
func (p *Plan) ImageRange(owners [][]Range, s int) Range {
	st := p.Stages[0]
	return st.ClipInput(st.InputRange(owners[0][s]))
}

// HaloBand is one (stage, shard) entry of a HaloTable: what becomes of
// the band of stage output rows the shard owns.
type HaloBand struct {
	// Rows is the hull of the rows other shards' next-stage inputs
	// intersect — all the owner has to publish — and Readers how many
	// shards read from it, i.e. the fetches the owner must expect.
	// Both are zero when the band has no reader (always for the last
	// stage, and for most stages of a pyramid that rarely crosses a cut).
	Rows    Range
	Readers int
	// Fetch lists what the shard's own next stage reads from other
	// shards' bands, in owner order.
	Fetch []HaloSeg
	// Own reports that the shard's next stage needs exactly the band it
	// already owns: no fetch, no assembly, the tensor passes through.
	Own bool
}

// HaloSeg is one fetch: rows Rows of the previous stage's output, held
// by shard Owner.
type HaloSeg struct {
	Owner int
	Rows  Range
}

// HaloTable is the halo plan of one owners table, indexed
// [stage][shard]. It is the single source for what RunShard publishes
// and fetches, how many reads an exchange cell is published for, and
// which stage inputs need no assembly.
type HaloTable struct {
	Bands  [][]HaloBand
	owners [][]Range
}

func newHaloTable(stages []*Stage, owners [][]Range) *HaloTable {
	t := &HaloTable{Bands: make([][]HaloBand, len(stages)), owners: owners}
	for i := range stages {
		t.Bands[i] = make([]HaloBand, len(owners[i]))
	}
	for i := 1; i < len(stages); i++ {
		st, prev := stages[i], t.Bands[i-1]
		for s, out := range owners[i] {
			need := st.ClipInput(st.InputRange(out))
			prev[s].Own = !need.Empty() && need == owners[i-1][s]
			for o, band := range owners[i-1] {
				seg := intersect(band, need)
				if o == s || seg.Empty() {
					continue
				}
				prev[s].Fetch = append(prev[s].Fetch, HaloSeg{Owner: o, Rows: seg})
				if prev[o].Readers == 0 {
					prev[o].Rows = seg
				} else {
					prev[o].Rows = Range{min(prev[o].Rows.Lo, seg.Lo), max(prev[o].Rows.Hi, seg.Hi)}
				}
				prev[o].Readers++
			}
		}
	}
	return t
}

// Halo returns the halo table of Owners(n), cached per n like it.
func (p *Plan) Halo(n int) *HaloTable {
	owners := p.Owners(n)
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.halos[n]
	if t == nil {
		t = newHaloTable(p.Stages, owners)
		p.halos[n] = t
	}
	return t
}

// haloFor resolves the table for an owners table handed to RunShard:
// the cached one when it is the plan's own partition, a fresh one for
// a caller's custom geometry.
func (p *Plan) haloFor(owners [][]Range) *HaloTable {
	if t := p.Halo(len(owners[0])); slices.EqualFunc(t.owners, owners, func(a, b []Range) bool { return slices.Equal(a, b) }) {
		return t
	}
	return newHaloTable(p.Stages, owners)
}

// Signature summarizes everything two processes must agree on before
// exchanging rows: image geometry, the stage chain with window
// parameters, the classifier width, and the weight-snapshot
// fingerprint. Workers refuse gangs whose signature differs.
func (p *Plan) Signature(snapshotFP string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "in=%dx%dx%d classes=%d", p.InC, p.InH, p.InW, p.Classes)
	for _, st := range p.Stages {
		fmt.Fprintf(&b, "|%s(%s)%d>%d", st.Name, st.Kind, st.InH, st.OutH)
		if st.windowed {
			fmt.Fprintf(&b, " k%d,%ds%d,%dp%s", st.win.KH, st.win.KW, st.win.SH, st.win.SW, st.win.Pad)
		}
	}
	fmt.Fprintf(&b, "|snap=%s", snapshotFP)
	return b.String()
}

// ShardEval evaluates plan stages for one shard. It resolves each
// stage's parameter tensors once at construction and is safe for
// concurrent use: stage ops are stateless in eval mode (see the BN
// running-stats read path), and each RunShard works out of an arena of
// its own, taken from a free list for the duration of the call.
type ShardEval struct {
	p      *Plan
	params [][]*tensor.Tensor

	mu     sync.Mutex
	arenas []*tensor.Arena // every arena made, for ArenaStats
	idle   []*tensor.Arena
}

// NewShardEval binds a plan to the parameter store it was materialized
// with.
func NewShardEval(p *Plan, store *graph.ParamStore) (*ShardEval, error) {
	se := &ShardEval{p: p, params: make([][]*tensor.Tensor, len(p.Stages))}
	for i, st := range p.Stages {
		for _, src := range st.node.Inputs[1:] {
			pe := store.Lookup(src.Name)
			if pe == nil {
				return nil, fmt.Errorf("distserve: stage %s: parameter %q not in store", st.Name, src.Name)
			}
			se.params[i] = append(se.params[i], pe.Value)
		}
	}
	return se, nil
}

// Plan returns the evaluation's sharding geometry.
func (se *ShardEval) Plan() *Plan { return se.p }

func (se *ShardEval) getArena() *tensor.Arena {
	se.mu.Lock()
	defer se.mu.Unlock()
	if n := len(se.idle); n > 0 {
		a := se.idle[n-1]
		se.idle = se.idle[:n-1]
		return a
	}
	a := tensor.NewArena()
	se.arenas = append(se.arenas, a)
	return a
}

func (se *ShardEval) putArena(a *tensor.Arena) {
	se.mu.Lock()
	se.idle = append(se.idle, a)
	se.mu.Unlock()
}

// ArenaStats sums the RunShard arenas' counters: one arena per
// concurrent RunShard at the high-water mark, InUseBytes zero whenever
// none is running.
func (se *ShardEval) ArenaStats() tensor.ArenaStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	var st tensor.ArenaStats
	for _, a := range se.arenas {
		st = st.Add(a.Stats())
	}
	return st
}

// EvalStage computes output rows out of stage i from x, which must hold
// exactly the clipped input rows ClipInput(InputRange(out)). The band
// is padded by Window1D.BandPad via the op's WithPad: overhang beyond
// the real input becomes the unsplit op's own zero-padding.
// Empty out returns (nil, nil). The result is a plain heap tensor.
func (se *ShardEval) EvalStage(i int, x *tensor.Tensor, out Range) (*tensor.Tensor, error) {
	return se.evalStage(nil, nil, i, x, out)
}

// evalStage is EvalStage with the output drawn from dst and the op's
// scratch and stash from scratch (nil = heap, for either).
func (se *ShardEval) evalStage(dst, scratch *tensor.Arena, i int, x *tensor.Tensor, out Range) (*tensor.Tensor, error) {
	st := se.p.Stages[i]
	if out.Empty() {
		return nil, nil
	}
	clip := st.ClipInput(st.InputRange(out))
	if clip.Empty() {
		return nil, fmt.Errorf("distserve: stage %s: output rows %v read no real input rows", st.Name, out)
	}
	if x == nil || x.Shape().H() != clip.Len() || x.Shape().C() != st.InC || x.Shape().W() != st.InW {
		return nil, fmt.Errorf("distserve: stage %s: input covers %d rows, want %d (%v)", st.Name, heightOf(x), clip.Len(), clip)
	}
	op := st.node.Op
	if st.windowed {
		pad := st.win.Pad
		pad.Top, pad.Bottom = st.win.Rows().BandPad(out.Lo, out.Hi, clip.Lo, clip.Hi, st.InH)
		op = st.node.Op.(graph.WindowOp).WithPad(pad)
	}
	in := make([]*tensor.Tensor, 0, 1+len(se.params[i]))
	in = append(in, x)
	in = append(in, se.params[i]...)
	shapes := make([]tensor.Shape, len(in))
	for j, t := range in {
		shapes[j] = t.Shape()
	}
	shape, err := op.OutShape(shapes)
	if err != nil {
		return nil, fmt.Errorf("distserve: stage %s: %w", st.Name, err)
	}
	if shape.H() != out.Len() {
		return nil, fmt.Errorf("distserve: stage %s: produces %d rows for %v", st.Name, shape.H(), out)
	}
	y := dst.GetRaw(shape...)
	if stash, ok := op.ForwardInto(scratch, y, in).(*tensor.Tensor); ok {
		scratch.Put(stash) // inference never runs backward
	}
	return y, nil
}

func heightOf(t *tensor.Tensor) int {
	if t == nil {
		return 0
	}
	return t.Shape().H()
}

// HaloFetch returns rows (a sub-range of stage's output) owned by
// another shard. The worker implements it as a Shard.Halo RPC; the halo
// tests implement it over a local dist.Exchange.
type HaloFetch func(stage, owner int, rows Range) (*tensor.Tensor, error)

// HaloPublish announces the rows of this shard's freshly computed stage
// output that other shards will fetch (the HaloTable's hull), as a
// tensor the callee owns, so neighbor Halo requests can be answered.
type HaloPublish func(stage int, rows Range, t *tensor.Tensor)

// StageObserver is invoked after each stage completes (trace spans).
type StageObserver func(stage int, name string, start, end time.Time)

// RunShard evaluates every plan stage for one shard. image must hold
// exactly the rows ImageRange(owners, shard) of the input picture; the
// returned tensor is the shard's band of the final stage's output
// (nil when the band is empty) together with that band.
//
// What crosses shards is the HaloTable's and nothing more: a stage's
// output is published only if another shard reads it, as a fresh copy
// of just the rows read, and a stage whose input is exactly the band
// the shard already owns takes it as is. The returned band and every
// published tensor are plain heap tensors the caller may keep;
// everything else — assembled inputs, intermediate bands, op scratch —
// lives in one arena for the duration of the call.
//
// Deadlock freedom of the gang: stage i's assembly only fetches rows of
// stage i−1, which every owner publishes before starting its own stage
// i — so any Wait is for a value strictly earlier in its producer's
// program order, and the dependency graph across workers is acyclic.
func (se *ShardEval) RunShard(image *tensor.Tensor, shard int, owners [][]Range, fetch HaloFetch, publish HaloPublish, obs StageObserver) (*tensor.Tensor, Range, error) {
	halo := se.p.haloFor(owners)
	a := se.getArena()
	// prev is the previous stage's band and x the current stage's input;
	// Put ignores whatever the arena did not vend (the image, the final
	// band) and anything already returned, so every exit can hand both
	// back unconditionally.
	var prev, x *tensor.Tensor
	defer func() {
		a.Put(x)
		a.Put(prev)
		se.putArena(a)
	}()
	last := len(se.p.Stages) - 1
	for i := range se.p.Stages {
		out := owners[i][shard]
		switch {
		case out.Empty(): // nothing to compute: evalStage yields nil
		case i == 0:
			x = image
		case halo.Bands[i-1][shard].Own:
			x = prev
		default:
			st := se.p.Stages[i]
			if need := st.ClipInput(st.InputRange(out)); !need.Empty() {
				x = a.GetRaw(1, st.InC, need.Len(), st.InW)
				if err := se.assemble(x, need, i, prev, owners[i-1][shard], halo.Bands[i-1][shard].Fetch, fetch); err != nil {
					return nil, Range{}, err
				}
			}
		}
		dst := a
		if i == last {
			dst = nil
		}
		start := time.Now()
		y, err := se.evalStage(dst, a, i, x, out)
		if err != nil {
			return nil, Range{}, err
		}
		if obs != nil {
			obs(i, se.p.Stages[i].Name, start, time.Now())
		}
		if b := halo.Bands[i][shard]; b.Readers > 0 && publish != nil {
			publish(i, b.Rows, SliceRows(y, out.Lo, b.Rows))
		}
		a.Put(x)
		a.Put(prev)
		prev, x = y, nil
	}
	return prev, owners[last][shard], nil
}

// assemble fills x, stage i's input rows need, for a shard: its own
// previous-stage band prev (rows prevOwn) where that intersects need,
// plus the halo segments the table lists, fetched from their owners.
func (se *ShardEval) assemble(x *tensor.Tensor, need Range, i int, prev *tensor.Tensor, prevOwn Range, segs []HaloSeg, fetch HaloFetch) error {
	st := se.p.Stages[i]
	covered := 0
	if own := intersect(prevOwn, need); !own.Empty() {
		if prev == nil {
			return fmt.Errorf("distserve: stage %s: shard owns %v but produced nothing", st.Name, prevOwn)
		}
		copyRows(x, own.Lo-need.Lo, prev, own.Lo-prevOwn.Lo, own.Len())
		covered = own.Len()
	}
	for _, seg := range segs {
		src, err := fetch(i-1, seg.Owner, seg.Rows)
		if err != nil {
			return fmt.Errorf("distserve: stage %s: halo %v from shard %d: %w", st.Name, seg.Rows, seg.Owner, err)
		}
		if src == nil {
			return fmt.Errorf("distserve: stage %s: shard %d owns %v but produced nothing", st.Name, seg.Owner, seg.Rows)
		}
		copyRows(x, seg.Rows.Lo-need.Lo, src, 0, seg.Rows.Len())
		covered += seg.Rows.Len()
	}
	if covered != need.Len() {
		return fmt.Errorf("distserve: stage %s: assembled %d of %d input rows %v", st.Name, covered, need.Len(), need)
	}
	return nil
}

// copyRows copies `rows` H-rows between two batch-1 NCHW tensors that
// agree on C and W, channel by channel (each channel's rows are
// contiguous in NCHW).
func copyRows(dst *tensor.Tensor, dstRow int, src *tensor.Tensor, srcRow, rows int) {
	ds, ss := dst.Shape(), src.Shape()
	c, w := ds.C(), ds.W()
	dh, sh := ds.H(), ss.H()
	dd, sd := dst.Data(), src.Data()
	for ch := 0; ch < c; ch++ {
		d0 := (ch*dh + dstRow) * w
		s0 := (ch*sh + srcRow) * w
		copy(dd[d0:d0+rows*w], sd[s0:s0+rows*w])
	}
}

// SliceRows extracts rows [r.Lo, r.Hi) (relative to base row `base`) of
// a batch-1 NCHW tensor into a fresh tensor.
func SliceRows(t *tensor.Tensor, base int, r Range) *tensor.Tensor {
	s := t.Shape()
	out := tensor.New(1, s.C(), r.Len(), s.W())
	copyRows(out, 0, t, r.Lo-base, r.Len())
	return out
}
