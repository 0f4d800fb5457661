package graph

import (
	"fmt"

	"splitcnn/internal/memlayout"
	"splitcnn/internal/tensor"
)

// Compiled execution: instead of interpreting the graph node by node and
// cycling activations through an arena's bucket pools, Compile lowers a
// graph once into a fixed program — a short list of kernel steps writing
// into pre-planned windows of a single slab — and Forward just replays
// it. This is the inference-side analogue of the paper's HMMS pipeline:
// rewrite the program, derive storage sharing and lifetimes, then place
// every storage object at a static offset with the same first-fit
// allocator hmms.PlanMemory uses (§4.4), so the hot path performs no
// allocation and no recycling at all.
//
// Three rewrite families run before planning (all disabled by
// CompileOptions.NoRewrite):
//
//   - In-place fusion (§4.2's in-place TSO sharing): an op that can
//     overwrite its input — ReLU always, BatchNorm/BNReLU in inference
//     mode where the affine transform is elementwise — is folded into
//     its producer's step as an epilogue running on the producer's
//     storage. The BN family is deliberately NOT folded into conv
//     weights: textbook weight folding changes the float32 rounding and
//     would break the bit-identity contract with the interpreted
//     executor. Running the identical eval-mode affine expression in
//     place is exactly as many passes over memory as the fused-weight
//     form saves (one), and keeps outputs bit-identical.
//   - No-op elision: inference-mode dropout forwards its input
//     unchanged; the value is aliased instead of copied.
//   - Reshape elision: flatten becomes a second tensor view of the same
//     slab window with the flattened shape; no copy, no step.
//
// Liveness then runs over the rewritten step list: each storage (an
// alias set of node values sharing one slab window) is live from the
// step that produces it through the last step that reads it, graph
// outputs to the end. memlayout.FirstFit packs the lifetimes into one
// slab whose size IS the plan's peak — the executor maps exactly
// SlabBytes() and nothing else on the activation path.
//
// The program is planned at its declared batch B but runs any live
// batch 1 ≤ n ≤ B that its feeds carry: every batch-major value (one
// whose declared leading dim is B) is NCHW, batch outermost, so its
// first n samples are a contiguous prefix of its slab window. A prefix
// pass is the same step list over those prefix views at the same
// offsets — one graph, one plan, one slab, and compute proportional to
// the samples actually present.

// InplaceOp is implemented by ops that can overwrite their first input
// with their output (same shape, elementwise). CanRunInplace reports
// whether the op's current mode permits it (BatchNorm/BNReLU only in
// inference mode); ForwardInplace applies the op to x in place, with in
// carrying the op's full input list for parameter access (in[0] aliases
// x and must not be read after writing).
type InplaceOp interface {
	Op
	CanRunInplace() bool
	ForwardInplace(x *tensor.Tensor, in []*tensor.Tensor)
}

// NoopOp is implemented by ops that, in their current mode, forward
// their input unchanged (inference-mode dropout). The compiler elides
// them entirely, aliasing the producer's value.
type NoopOp interface {
	Op
	IsNoop() bool
}

// ReshapeOp is implemented by ops whose output is the input's data with
// a different shape (flatten). The compiler replaces them with a second
// view of the producer's slab window.
type ReshapeOp interface {
	Op
	IsReshape() bool
}

// inPlaceEligible mirrors the hmms storage-sharing capability marker
// (§4.2). When an op carries the marker, the compiler honors it as a
// veto: an op reporting InPlaceEligible() == false is never fused, even
// if its InplaceOp implementation would permit it.
type inPlaceEligible interface {
	InPlaceEligible() bool
}

// inplaceAllowed applies the InPlaceEligible veto (true when the op
// does not carry the marker).
func inplaceAllowed(op Op) bool {
	if el, ok := op.(inPlaceEligible); ok {
		return el.InPlaceEligible()
	}
	return true
}

// CompileOptions configures Compile.
type CompileOptions struct {
	// NoRewrite disables fusion and elision: every op becomes its own
	// step with its own storage. The static memory plan still applies.
	// Used by tests and as an ablation baseline.
	NoRewrite bool
	// Scratch, when non-nil, supplies the arena kernels draw transient
	// workspace from (im2col buffers, softmax probabilities). Defaults
	// to a fresh private arena.
	Scratch *tensor.Arena
}

// CompileStats summarizes what compilation did to the graph.
type CompileStats struct {
	Ops       int // op nodes in the source graph
	Steps     int // kernel steps in the compiled program
	Fused     int // ops folded in place into a producer's step
	Elided    int // no-op forwards removed entirely
	Reshaped  int // reshapes turned into views
	SlabBytes int64
	// NoReuseBytes is what the slab would need without lifetime reuse —
	// the sum of all storage sizes (ablation baseline, mirrors
	// hmms.MemoryPlan.NoReuseBytes).
	NoReuseBytes int64
}

// PlanEntry describes one node value's placement in the compiled plan,
// for introspection, tests, and the `splitcnn compile` report.
type PlanEntry struct {
	Name string
	Kind string // op kind, or "input" for feed-aliased values
	// Step is the index of the step that materializes the value (the
	// producer's step for fused/aliased values); -1 for values that are
	// external feeds.
	Step int
	// Storage identifies the slab storage (alias set) backing the
	// value; -1 for external feeds. Values sharing a Storage share
	// bytes.
	Storage int
	// Offset/Bytes locate the storage's window in the slab (valid when
	// Storage >= 0). Start/End bound the storage's lifetime in step
	// indices, inclusive.
	Offset, Bytes int64
	Start, End    int
	// FusedInto names the step node this op was folded into as an
	// in-place epilogue ("" for regular steps and pure aliases).
	FusedInto string
	// Alias marks values that share a previously-materialized storage
	// (fused, elided, or reshaped) rather than owning a fresh one.
	Alias bool
}

// feedBinding records a step input slot that must be rebound from the
// feeds map on every Forward call.
type feedBinding struct {
	step, slot int
	name       string
	shape      tensor.Shape
}

// outFeedBinding records a program output that aliases an external feed
// (a graph output elided all the way back to an input).
type outFeedBinding struct {
	idx   int
	name  string
	shape tensor.Shape
}

// epilogue is one in-place fused op attached to a step.
type epilogue struct {
	node *Node
	op   InplaceOp
	x    *tensor.Tensor
	in   []*tensor.Tensor
}

// step is one kernel invocation of the compiled program.
type step struct {
	node *Node
	in   []*tensor.Tensor
	out  *tensor.Tensor
	post []epilogue
	// slabRef is the deduplicated slab bytes this step's kernel call
	// references: its output window plus every distinct slab storage
	// among its inputs. Concurrently-live storages occupy disjoint
	// windows (first-fit invariant), so the sum never double counts.
	// batchRef is the part of slabRef held by batch-major storages, the
	// part a prefix pass scales by n/B.
	slabRef, batchRef int64
	// extent is the end of the step's output window (offset+bytes) —
	// the written high-water contribution of this step.
	extent int64
}

// StepEvent describes one executed step of a compiled program, fired by
// the Hook after the step's kernel and its fused epilogues complete.
// SlabRefBytes/SlabWrittenBytes are runtime observations of the bound
// slab windows — on a prefix pass, of the prefix views that pass
// touched; Scratch is a live snapshot of the scratch arena.
type StepEvent struct {
	Step  int
	Name  string
	Kind  string
	Fused int // in-place epilogues run as part of this step
	// SlabRefBytes is the slab footprint the step's kernel actually
	// touched (output window + distinct slab-resident inputs, deduped).
	SlabRefBytes int64
	// SlabWrittenBytes is the high-water extent of slab windows written
	// so far in this pass (max offset+bytes over executed steps).
	SlabWrittenBytes int64
	// Scratch snapshots the program's scratch arena after the step.
	Scratch tensor.ArenaStats
}

// StepHook receives one StepEvent per executed compiled step.
type StepHook func(StepEvent)

// pass is the step list and output views that run the first n samples
// of the batch over the slab.
type pass struct {
	steps    []step
	outViews []*tensor.Tensor
}

// CompiledProgram is a graph lowered to a fixed step list over one
// pre-sized slab. It is NOT safe for concurrent use: the slab windows
// are reused across calls (clone outputs before the next Forward, or
// give each goroutine its own program).
type CompiledProgram struct {
	g *Graph
	// batch is B, the leading dim of the graph's first input; a value
	// whose declared leading dim is B is batch-major. 0 when the graph
	// has no input with a leading dim.
	batch int
	// passes[n] runs the first n samples. passes[batch] is the full
	// program; the shorter ones are built on first use.
	passes []*pass
	// batchViews holds the batch-major slab views, the ones a prefix
	// pass narrows to their first n samples.
	batchViews map[*tensor.Tensor]bool
	bindings   []feedBinding
	outFeeds   []outFeedBinding
	outsBuf    []*tensor.Tensor
	slab       []float32
	scratch    *tensor.Arena
	plan       []PlanEntry
	stats      CompileStats

	// Hook, when non-nil, receives a StepEvent after every executed
	// step. Installing a hook costs one arena-stats snapshot per step;
	// leaving it nil keeps Forward allocation-free.
	Hook StepHook
}

// valKind classifies where a node's value lives at run time.
type valKind int

const (
	vExternal valKind = iota // a feed tensor, rebound every Forward
	vParam                   // a parameter tensor from the store
	vSlab                    // a fixed window of the slab
)

type valRef struct {
	kind    valKind
	feed    string // vExternal: input-node name
	param   *Param // vParam
	storage int    // vSlab: storage index
}

// storageSym is one slab storage (alias set) during planning.
type storageSym struct {
	elems       int
	birth, last int   // step-index lifetime, inclusive
	output      bool  // some member is a graph output: lives to the end
	members     []int // node IDs sharing this storage
	offset      int64 // filled by layout
}

// Compile lowers g into a CompiledProgram: applies the inference
// rewrites (unless opts.NoRewrite), plans a static first-fit memory
// layout for every intermediate value, and binds each step's inputs and
// outputs to fixed slab windows. The graph's ops are captured in their
// current mode — flip training/inference with SetTraining BEFORE
// compiling; mode changes after Compile are not observed by the
// rewrite decisions (fusion and elision), only by the kernels
// themselves, so recompile instead.
//
// Parameters resolve to the store's current tensors; in-place updates
// (SGD) are observed, parameter replacement is not.
func Compile(g *Graph, store *ParamStore, opts CompileOptions) (*CompiledProgram, error) {
	topo, err := g.Topo()
	if err != nil {
		return nil, err
	}
	for _, n := range g.Params() {
		if store.Lookup(n.Name) == nil {
			return nil, fmt.Errorf("compile: parameter %q not in store (call InitFromGraph first)", n.Name)
		}
	}
	cons := g.Consumers()
	isOutput := make([]bool, len(g.Nodes))
	for _, n := range g.Outputs {
		isOutput[n.ID] = true
	}

	// ---- Phase A: rewrite sweep. Decide, in topo order, whether each op
	// becomes its own step, folds into a producer's step, or vanishes
	// into an alias; track storage membership and lifetimes.
	vals := make([]valRef, len(g.Nodes))
	var storages []*storageSym
	type symStep struct {
		n    *Node
		post []*Node
	}
	var steps []symStep
	stats := CompileStats{}

	// markRead extends a storage's lifetime to the given step index.
	markRead := func(v valRef, at int) {
		if v.kind == vSlab {
			if s := storages[v.storage]; at > s.last {
				s.last = at
			}
		}
	}

	for _, n := range topo {
		switch n.Kind {
		case KindInput:
			vals[n.ID] = valRef{kind: vExternal, feed: n.Name}
			continue
		case KindParam:
			vals[n.ID] = valRef{kind: vParam, param: store.Lookup(n.Name)}
			continue
		}
		stats.Ops++
		in0 := vals[n.Inputs[0].ID]

		if !opts.NoRewrite {
			// No-op elision: the value IS the input's value.
			if no, ok := n.Op.(NoopOp); ok && no.IsNoop() {
				vals[n.ID] = in0
				if in0.kind == vSlab {
					s := storages[in0.storage]
					s.members = append(s.members, n.ID)
					if isOutput[n.ID] {
						s.output = true
					}
				}
				stats.Elided++
				continue
			}
			// Reshape elision: a second view of the same slab window.
			if r, ok := n.Op.(ReshapeOp); ok && r.IsReshape() && in0.kind == vSlab {
				vals[n.ID] = in0
				s := storages[in0.storage]
				s.members = append(s.members, n.ID)
				if isOutput[n.ID] {
					s.output = true
				}
				stats.Reshaped++
				continue
			}
			// In-place fusion: fold n into the step that produced its
			// input's storage, as an epilogue overwriting the window.
			if ip, ok := n.Op.(InplaceOp); ok && ip.CanRunInplace() && in0.kind == vSlab {
				if inplaceAllowed(n.Op) && fuseLegal(n, storages[in0.storage], cons, isOutput) {
					s := storages[in0.storage]
					s.members = append(s.members, n.ID)
					if isOutput[n.ID] {
						s.output = true
					}
					vals[n.ID] = in0
					steps[s.birth].post = append(steps[s.birth].post, n)
					stats.Fused++
					continue
				}
			}
		}

		// Regular step with a fresh storage.
		at := len(steps)
		steps = append(steps, symStep{n: n})
		for _, src := range n.Inputs {
			markRead(vals[src.ID], at)
		}
		storages = append(storages, &storageSym{
			elems: n.Shape.Elems(), birth: at, last: at,
			output: isOutput[n.ID], members: []int{n.ID},
		})
		vals[n.ID] = valRef{kind: vSlab, storage: len(storages) - 1}
	}

	// Outputs must be computable.
	for _, o := range g.Outputs {
		if o.Kind == KindParam {
			return nil, fmt.Errorf("compile: output %s is a parameter", o)
		}
	}

	// ---- Phase B: static memory plan. Storages holding outputs live to
	// the last step; everything else dies at its last reader.
	blocks := make([]*memlayout.Block, len(storages))
	for i, s := range storages {
		if s.output {
			s.last = len(steps) - 1
		}
		blocks[i] = &memlayout.Block{Start: s.birth, End: s.last, Bytes: int64(s.elems) * 4}
		stats.NoReuseBytes += blocks[i].Bytes
	}
	slabBytes := memlayout.FirstFit(blocks)
	for i, s := range storages {
		s.offset = blocks[i].Offset
		if s.offset%4 != 0 {
			return nil, fmt.Errorf("compile: storage %d offset %d not element-aligned", i, s.offset)
		}
	}
	stats.SlabBytes = slabBytes
	stats.Steps = len(steps)

	full := &pass{outViews: make([]*tensor.Tensor, len(g.Outputs))}
	p := &CompiledProgram{
		g:          g,
		batchViews: make(map[*tensor.Tensor]bool),
		slab:       make([]float32, slabBytes/4),
		scratch:    opts.Scratch,
		outsBuf:    make([]*tensor.Tensor, len(g.Outputs)),
	}
	if p.scratch == nil {
		p.scratch = tensor.NewArena()
	}
	for _, n := range g.Nodes {
		if n.Kind == KindInput && len(n.Shape) > 0 {
			p.batch = n.Shape[0]
			break
		}
	}
	p.passes = make([]*pass, p.batch+1)
	p.passes[p.batch] = full

	// Per-node slab views (each member of a storage gets a view with its
	// own declared shape over the shared window).
	views := make([]*tensor.Tensor, len(g.Nodes))
	for _, n := range topo {
		v := vals[n.ID]
		if v.kind != vSlab {
			continue
		}
		s := storages[v.storage]
		off := int(s.offset / 4)
		views[n.ID] = tensor.Wrap(p.slab[off:off+n.Shape.Elems()], n.Shape...)
		if p.batchMajor(n.Shape) {
			p.batchViews[views[n.ID]] = true
		}
	}

	// Bind steps.
	stepIdx := make([]int, len(g.Nodes)) // node ID -> step index of its value
	for i := range stepIdx {
		stepIdx[i] = -1
	}
	for si := range steps {
		sym := &steps[si]
		n := sym.n
		st := step{
			node: n,
			in:   make([]*tensor.Tensor, len(n.Inputs)),
			out:  views[n.ID],
		}
		for slot, src := range n.Inputs {
			v := vals[src.ID]
			switch v.kind {
			case vExternal:
				p.bindings = append(p.bindings, feedBinding{step: si, slot: slot, name: v.feed, shape: src.Shape})
			case vParam:
				st.in[slot] = v.param.Value
			case vSlab:
				st.in[slot] = views[src.ID]
			}
		}
		// Slab footprint of this step's kernel call: output window plus
		// every distinct slab storage among the inputs.
		outSym := storages[vals[n.ID].storage]
		st.slabRef = int64(n.Shape.Elems()) * 4
		st.extent = outSym.offset + st.slabRef
		if p.batchMajor(n.Shape) {
			st.batchRef = st.slabRef
		}
		seenStorage := map[int]bool{vals[n.ID].storage: true}
		for _, src := range n.Inputs {
			if v := vals[src.ID]; v.kind == vSlab && !seenStorage[v.storage] {
				seenStorage[v.storage] = true
				bytes := int64(storages[v.storage].elems) * 4
				st.slabRef += bytes
				if p.batchMajor(src.Shape) {
					st.batchRef += bytes
				}
			}
		}
		stepIdx[n.ID] = si
		for _, fn := range sym.post {
			ep := epilogue{node: fn, op: fn.Op.(InplaceOp), x: views[fn.ID], in: make([]*tensor.Tensor, len(fn.Inputs))}
			for slot, src := range fn.Inputs {
				if slot == 0 {
					ep.in[0] = ep.x // aliases the storage being overwritten
					continue
				}
				// fuseLegal guarantees aux inputs are parameters.
				ep.in[slot] = vals[src.ID].param.Value
			}
			st.post = append(st.post, ep)
			stepIdx[fn.ID] = si
		}
		full.steps = append(full.steps, st)
	}

	// Bind outputs.
	for i, o := range g.Outputs {
		v := vals[o.ID]
		switch v.kind {
		case vExternal:
			p.outFeeds = append(p.outFeeds, outFeedBinding{idx: i, name: v.feed, shape: o.Shape})
		case vParam:
			full.outViews[i] = v.param.Value
		case vSlab:
			full.outViews[i] = views[o.ID]
		}
	}

	// Plan entries for introspection, in topo order over op + input
	// nodes that carry values.
	fusedInto := make(map[int]string)
	for si := range steps {
		for _, fn := range steps[si].post {
			fusedInto[fn.ID] = steps[si].n.Name
		}
	}
	for _, n := range topo {
		if n.Kind != KindOp {
			continue
		}
		v := vals[n.ID]
		e := PlanEntry{Name: n.Name, Kind: n.Op.Kind(), Step: stepIdx[n.ID], Storage: -1, FusedInto: fusedInto[n.ID]}
		if v.kind == vSlab {
			s := storages[v.storage]
			e.Storage = v.storage
			e.Offset, e.Bytes = s.offset, int64(n.Shape.Elems())*4
			e.Start, e.End = s.birth, s.last
			e.Alias = s.members[0] != n.ID
		} else {
			e.Kind = "input"
			e.Step = -1
		}
		p.plan = append(p.plan, e)
	}
	p.stats = stats
	return p, nil
}

// fuseLegal reports whether op n may be folded in place onto storage s.
// Overwriting the window is only safe when nothing still needs the old
// bytes: no member of the storage may be a graph output (its value
// would be clobbered), and no member may have a consumer that runs
// after n (consumers are ordered by node ID, and every consumer with a
// smaller ID has already executed — or itself fused — by the time n's
// epilogue runs). Aux inputs must be parameters so the epilogue needs
// no feed rebinding.
func fuseLegal(n *Node, s *storageSym, cons [][]*Node, isOutput []bool) bool {
	for _, in := range n.Inputs[1:] {
		if in.Kind != KindParam {
			return false
		}
	}
	for _, id := range s.members {
		if isOutput[id] {
			return false
		}
		for _, c := range cons[id] {
			if c.ID > n.ID {
				return false
			}
		}
	}
	return true
}

// batchMajor reports whether a value of declared shape s carries the
// batch as its leading dim.
func (p *CompiledProgram) batchMajor(s tensor.Shape) bool {
	return p.batch > 0 && len(s) > 0 && s[0] == p.batch
}

// liveBatch validates the feeds and returns the live batch n: the
// leading dim every batch-major feed shares, 1 ≤ n ≤ B (B itself when
// the program has no batch-major feed). All other dims must be exact.
func (p *CompiledProgram) liveBatch(feeds Feeds) (int, error) {
	n, from := 0, ""
	for _, b := range p.bindings {
		t := feeds[b.name]
		if t == nil {
			return 0, fmt.Errorf("compiled: no feed for input %q", b.name)
		}
		s := t.Shape()
		if !p.batchMajor(b.shape) {
			if !s.Equal(b.shape) {
				return 0, fmt.Errorf("compiled: feed %q has shape %v, program wants %v", b.name, s, b.shape)
			}
			continue
		}
		if len(s) != len(b.shape) || !s[1:].Equal(b.shape[1:]) || s[0] < 1 || s[0] > p.batch {
			return 0, fmt.Errorf("compiled: feed %q has shape %v, program wants %v with a live batch in [1, %d]", b.name, s, b.shape, p.batch)
		}
		switch {
		case n == 0:
			n, from = s[0], b.name
		case s[0] != n:
			return 0, fmt.Errorf("compiled: feeds disagree on the live batch: %q has %d, %q has %d", from, n, b.name, s[0])
		}
	}
	if n == 0 {
		n = p.batch
	}
	return n, nil
}

// pass returns the pass over the first n samples, building it on first
// use: each batch-major view becomes the view of its first n samples at
// the same offset, and everything else keeps its view.
func (p *CompiledProgram) pass(n int) *pass {
	if ps := p.passes[n]; ps != nil {
		return ps
	}
	full := p.passes[p.batch]
	prefix := make(map[*tensor.Tensor]*tensor.Tensor)
	view := func(t *tensor.Tensor) *tensor.Tensor {
		if !p.batchViews[t] {
			return t
		}
		v, ok := prefix[t]
		if !ok {
			s := t.Shape()
			v = tensor.Wrap(t.Data()[:t.Elems()/p.batch*n], append([]int{n}, s[1:]...)...)
			prefix[t] = v
		}
		return v
	}
	views := func(ts []*tensor.Tensor) []*tensor.Tensor {
		out := make([]*tensor.Tensor, len(ts))
		for i, t := range ts {
			out[i] = view(t)
		}
		return out
	}
	ps := &pass{steps: make([]step, len(full.steps)), outViews: views(full.outViews)}
	for i, st := range full.steps {
		q := st
		q.in, q.out = views(st.in), view(st.out)
		q.post = make([]epilogue, len(st.post))
		for j, ep := range st.post {
			q.post[j] = epilogue{node: ep.node, op: ep.op, x: view(ep.x), in: views(ep.in)}
		}
		q.batchRef = st.batchRef / int64(p.batch) * int64(n)
		q.slabRef = st.slabRef - st.batchRef + q.batchRef
		q.extent = st.extent - st.out.Bytes() + q.out.Bytes()
		ps.steps[i] = q
	}
	p.passes[n] = ps
	return ps
}

// Forward replays the compiled program against feeds and returns the
// graph outputs as views into the slab (or the feed tensors themselves
// for outputs elided back to inputs). The feeds' shared leading dim is
// the live batch n, 1 ≤ n ≤ B: Forward then runs only the first n
// samples, and batch-major outputs hold n rows. The returned tensors
// are overwritten by the next Forward call. A program warmed at n
// performs zero heap allocations at n.
func (p *CompiledProgram) Forward(feeds Feeds) ([]*tensor.Tensor, error) {
	n, err := p.liveBatch(feeds)
	if err != nil {
		return nil, err
	}
	ps := p.pass(n)
	for _, b := range p.bindings {
		ps.steps[b.step].in[b.slot] = feeds[b.name]
	}
	var extent int64
	for i := range ps.steps {
		st := &ps.steps[i]
		if opLabelsOn() {
			labelOp(st.node.Name, func() { p.runStep(st) })
		} else {
			p.runStep(st)
		}
		if p.Hook != nil {
			if st.extent > extent {
				extent = st.extent
			}
			p.Hook(StepEvent{
				Step: i, Name: st.node.Name, Kind: st.node.Op.Kind(),
				Fused:        len(st.post),
				SlabRefBytes: st.slabRef, SlabWrittenBytes: extent,
				Scratch: p.scratch.Stats(),
			})
		}
	}
	outs := p.outsBuf
	copy(outs, ps.outViews)
	for _, b := range p.outFeeds {
		t, ok := feeds[b.name]
		if !ok {
			return nil, fmt.Errorf("compiled: no feed for input %q (aliased by an output)", b.name)
		}
		outs[b.idx] = t
	}
	return outs, nil
}

// runStep executes one step: kernel call plus fused epilogues. The
// program never runs backward, so a stash goes straight back to the
// scratch arena.
func (p *CompiledProgram) runStep(st *step) {
	if t, ok := st.node.Op.ForwardInto(p.scratch, st.out, st.in).(*tensor.Tensor); ok {
		p.scratch.Put(t)
	}
	for _, ep := range st.post {
		ep.op.ForwardInplace(ep.x, ep.in)
	}
}

// SlabBytes returns the size of the single activation slab the program
// maps — the static plan's peak, and the only activation memory the
// compiled path touches.
func (p *CompiledProgram) SlabBytes() int64 { return p.stats.SlabBytes }

// Stats returns compilation statistics.
func (p *CompiledProgram) Stats() CompileStats { return p.stats }

// PlanEntries returns the per-node placement records of the static
// memory plan, in topological order.
func (p *CompiledProgram) PlanEntries() []PlanEntry {
	out := make([]PlanEntry, len(p.plan))
	copy(out, p.plan)
	return out
}

// Steps returns the number of kernel steps in the program.
func (p *CompiledProgram) Steps() int { return len(p.passes[p.batch].steps) }

// Arena returns the scratch arena kernels draw transient workspace
// from; its high-water mark bounds the compiled path's scratch usage.
func (p *CompiledProgram) Arena() *tensor.Arena { return p.scratch }
