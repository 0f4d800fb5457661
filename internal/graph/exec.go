package graph

import (
	"fmt"
	"time"

	"splitcnn/internal/tensor"
)

// OpEvent describes one executed operation, delivered to an Executor's
// Hook: what ran, when (seconds relative to HookBase), for how long,
// and how many output bytes it produced. It is the measured-CPU
// counterpart of a simulated kernel span, which is what makes real and
// simulated timelines diffable in the same trace viewer.
type OpEvent struct {
	Name string
	Kind string
	// Backward marks gradient-phase execution; trace consumers append
	// ".bwd" to match the serialized program's op naming.
	Backward bool
	// Start and Dur are in seconds; Start is relative to HookBase.
	Start, Dur float64
	// OutputBytes is the size of the produced tensor (forward) or the
	// summed size of produced input gradients (backward).
	OutputBytes int64
	// Output references the op's primary produced tensor — the forward
	// output, or the first produced input gradient in backward — so
	// hooks can health-scan fresh values (the trainer's NaN/Inf guard).
	// It is only valid for the duration of the hook call: with an arena
	// installed the storage is recycled afterwards.
	Output *tensor.Tensor
}

// OpHook receives per-op execution events.
type OpHook func(OpEvent)

// Executor runs real forward/backward arithmetic for a graph on the CPU.
// It honors the same liveness discipline the memory planner assumes:
// after the forward pass, activations that no backward computation needs
// (per the ops' stash declarations) are released immediately, and during
// the backward pass stashed activations are released as soon as their
// consumer's gradient has been computed.
//
// With UseArena, "released" additionally means "returned to the arena":
// every activation, gradient, and stash buffer cycles through one warm
// pool, so a steady-state training step performs zero heap allocations —
// the host-side mirror of the paper's §4 plan-and-reuse device pool.
type Executor struct {
	g     *Graph
	store *ParamStore
	topo  []*Node
	cons  [][]*Node

	vals    []*tensor.Tensor // forward values per node ID
	stashes []any
	// remaining counts the not-yet-executed forward consumers of each
	// node during the current Forward pass.
	remaining []int
	// PeakLiveBytes records the maximum simultaneously-live activation
	// bytes observed during the last Run, a CPU-side analogue of device
	// memory pressure used by tests.
	PeakLiveBytes int64
	liveBytes     int64

	// arena, when set, supplies all activation/gradient/stash storage.
	arena *tensor.Arena
	// Per-node caches built once so the hot loops allocate nothing:
	// reusable input/gradient slices and the static input shapes handed
	// to Op.Backward.
	inbufs   [][]*tensor.Tensor
	ginbufs  [][]*tensor.Tensor
	inShapes [][]tensor.Shape
	grads    []*tensor.Tensor
	outsBuf  []*tensor.Tensor
	isOutput []bool
	// extern marks node values owned by the caller (ForwardFrom
	// overrides): released and recycled by clearing the slot only,
	// never by returning the tensor to the arena.
	extern []bool
	// ovr caches the reachability analysis of the last ForwardFrom
	// override set (override.go).
	ovr *overrideState
	// retired holds output tensors whose arena reclamation is deferred
	// to the next Forward: the caller reads them after Backward returns.
	retired []*tensor.Tensor

	// Hook, when non-nil, receives one OpEvent per executed op in both
	// passes. HookBase anchors event timestamps; set it once per
	// training run so the spans of successive per-step executors land
	// on one continuous timeline. A zero HookBase is initialized to the
	// executor's first hooked op.
	Hook     OpHook
	HookBase time.Time
}

// NewExecutor prepares an executor for g resolving parameters in store.
func NewExecutor(g *Graph, store *ParamStore) (*Executor, error) {
	topo, err := g.Topo()
	if err != nil {
		return nil, err
	}
	for _, n := range g.Params() {
		if store.Lookup(n.Name) == nil {
			return nil, fmt.Errorf("executor: parameter %q not in store (call InitFromGraph first)", n.Name)
		}
	}
	e := &Executor{
		g:         g,
		store:     store,
		topo:      topo,
		cons:      g.Consumers(),
		vals:      make([]*tensor.Tensor, len(g.Nodes)),
		stashes:   make([]any, len(g.Nodes)),
		remaining: make([]int, len(g.Nodes)),
		inbufs:    make([][]*tensor.Tensor, len(g.Nodes)),
		ginbufs:   make([][]*tensor.Tensor, len(g.Nodes)),
		inShapes:  make([][]tensor.Shape, len(g.Nodes)),
		grads:     make([]*tensor.Tensor, len(g.Nodes)),
		outsBuf:   make([]*tensor.Tensor, len(g.Outputs)),
		isOutput:  make([]bool, len(g.Nodes)),
		extern:    make([]bool, len(g.Nodes)),
	}
	for _, n := range g.Outputs {
		e.isOutput[n.ID] = true
	}
	for _, n := range topo {
		if n.Kind != KindOp {
			continue
		}
		e.inbufs[n.ID] = make([]*tensor.Tensor, len(n.Inputs))
		e.ginbufs[n.ID] = make([]*tensor.Tensor, len(n.Inputs))
		shapes := make([]tensor.Shape, len(n.Inputs))
		for i, src := range n.Inputs {
			shapes[i] = src.Shape
		}
		e.inShapes[n.ID] = shapes
	}
	return e, nil
}

// UseArena makes the executor draw all activation, gradient, and stash
// storage from a (nil reverts to plain allocation). The arena should be
// private to this executor or, at minimum, to one goroutine's executors.
//
// With an arena installed, the tensors returned by Forward are only
// valid until the next Forward call, which reclaims them.
func (e *Executor) UseArena(a *tensor.Arena) { e.arena = a }

// Arena returns the arena installed by UseArena (nil if none).
func (e *Executor) Arena() *tensor.Arena { return e.arena }

// Feeds maps input-node names to their tensors for one step.
type Feeds map[string]*tensor.Tensor

// Recycle returns every tensor the executor still holds from the last
// step — leftover activations, stashes, and the deferred output tensors
// — to the arena. Forward calls it implicitly; call it directly only
// when discarding an executor whose arena outlives it (the stochastic
// splitter builds a fresh graph every minibatch). The previous step's
// outputs become invalid.
func (e *Executor) Recycle() { e.recycle() }

// recycle returns the previous step's leftover activations, stashes,
// and deferred output tensors to the arena, so this step's requests hit
// the warm pool instead of the heap.
func (e *Executor) recycle() {
	for i, t := range e.retired {
		e.arena.Put(t)
		e.retired[i] = nil
	}
	e.retired = e.retired[:0]
	for _, n := range e.topo {
		if n.Kind != KindOp {
			continue
		}
		if v := e.vals[n.ID]; v != nil {
			if !e.extern[n.ID] {
				e.arena.Put(v)
			}
			e.vals[n.ID] = nil
		}
		e.extern[n.ID] = false
		if st, ok := e.stashes[n.ID].(*tensor.Tensor); ok {
			e.arena.Put(st)
		}
		e.stashes[n.ID] = nil
	}
}

// Forward runs the forward pass and returns the value of each graph
// output. Activation tensors not needed by the backward pass are
// released before Forward returns. When an arena is installed, the
// returned tensors are valid until the next Forward call.
func (e *Executor) Forward(feeds Feeds) ([]*tensor.Tensor, error) {
	return e.forward(feeds, nil, nil)
}

// forward is the shared forward core. over, when non-nil, maps node IDs
// to caller-supplied values that replace the node's computation; need,
// when non-nil, masks which nodes must execute at all (both come from
// ForwardFrom's reachability analysis and are nil for a plain Forward).
func (e *Executor) forward(feeds Feeds, over []*tensor.Tensor, need []bool) ([]*tensor.Tensor, error) {
	e.recycle()
	e.liveBytes, e.PeakLiveBytes = 0, 0
	for id := range e.remaining {
		e.remaining[id] = len(e.cons[id])
	}
	if need != nil {
		// Only consumers that will actually execute count toward a
		// value's liveness: skipped and overridden ops never read their
		// inputs.
		for id := range e.remaining {
			r := 0
			for _, c := range e.cons[id] {
				if need[c.ID] && over[c.ID] == nil {
					r++
				}
			}
			e.remaining[id] = r
		}
	}
	for _, n := range e.topo {
		if need != nil && !need[n.ID] {
			continue
		}
		switch n.Kind {
		case KindInput:
			t, ok := feeds[n.Name]
			if !ok {
				return nil, fmt.Errorf("executor: no feed for input %q", n.Name)
			}
			if !t.Shape().Equal(n.Shape) {
				return nil, fmt.Errorf("executor: feed %q has shape %v, node wants %v", n.Name, t.Shape(), n.Shape)
			}
			e.vals[n.ID] = t
		case KindParam:
			e.vals[n.ID] = e.store.Lookup(n.Name).Value
		case KindOp:
			if over != nil && over[n.ID] != nil {
				// Caller-supplied value: adopt without executing and
				// mark it external so no release path recycles it.
				e.vals[n.ID] = over[n.ID]
				e.extern[n.ID] = true
				e.account(over[n.ID].Bytes())
				continue
			}
			in := e.inbufs[n.ID]
			for i, src := range n.Inputs {
				in[i] = e.vals[src.ID]
				if in[i] == nil {
					return nil, fmt.Errorf("executor: %s reads released value of %s", n, src)
				}
			}
			opStart := e.hookStart()
			out := e.arena.GetRaw(n.Shape...)
			var stash any
			if opLabelsOn() {
				labelOp(n.Name, func() { stash = n.Op.ForwardInto(e.arena, out, in) })
			} else {
				stash = n.Op.ForwardInto(e.arena, out, in)
			}
			if e.Hook != nil {
				e.Hook(OpEvent{
					Name: n.Name, Kind: n.Op.Kind(),
					Start: opStart, Dur: e.hookStart() - opStart,
					OutputBytes: out.Bytes(),
					Output:      out,
				})
			}
			e.vals[n.ID] = out
			e.stashes[n.ID] = stash
			e.account(out.Bytes())
			// Eagerly release inputs whose last forward consumer just
			// ran and that no backward computation will read — the same
			// liveness discipline the static memory planner assumes.
			for _, src := range n.Inputs {
				e.remaining[src.ID]--
				if e.remaining[src.ID] == 0 && !e.keepForBackward(src) {
					e.release(src)
				}
			}
		}
	}
	for _, n := range e.topo {
		if n.Kind == KindOp && e.remaining[n.ID] == 0 && !e.keepForBackward(n) {
			e.release(n) // dead ends with no forward consumers
		}
	}
	outs := e.outsBuf
	for i, n := range e.g.Outputs {
		outs[i] = e.vals[n.ID]
		if outs[i] == nil {
			// An output that no consumer stashes was released; recompute
			// policy is unnecessary here because outputs are always kept.
			return nil, fmt.Errorf("executor: output %s was released", n)
		}
	}
	return outs, nil
}

// keepForBackward reports whether node n's forward value is read by any
// backward computation: by its own op (NeedsOutput) or as a stashed
// input of a consumer, or is a graph output.
func (e *Executor) keepForBackward(n *Node) bool {
	if e.isOutput[n.ID] {
		return true
	}
	if n.Kind == KindOp && n.Op.NeedsOutput() {
		return true
	}
	for _, c := range e.cons[n.ID] {
		for i, in := range c.Inputs {
			if in == n && c.Op.NeedsInput(i) {
				return true
			}
		}
	}
	return false
}

// hookStart returns the current hook-relative timestamp in seconds,
// lazily anchoring HookBase. It returns 0 when no hook is installed.
func (e *Executor) hookStart() float64 {
	if e.Hook == nil {
		return 0
	}
	if e.HookBase.IsZero() {
		e.HookBase = time.Now()
	}
	return time.Since(e.HookBase).Seconds()
}

func (e *Executor) release(n *Node) {
	if e.vals[n.ID] != nil && n.Kind == KindOp {
		e.liveBytes -= e.vals[n.ID].Bytes()
		if e.extern[n.ID] {
			// Caller-owned override value: drop the reference only; the
			// recycle sweep clears the extern mark.
			e.vals[n.ID] = nil
			return
		}
		if e.isOutput[n.ID] {
			// The caller may still read this output tensor after
			// Backward returns; reclaim it at the next Forward instead.
			// Never retire the same tensor twice: an output that is also
			// consumed by a kept-for-backward node crosses this path from
			// both Forward's dead-end sweep and Backward's per-node
			// release, and a duplicate entry would Put the buffer twice
			// at the next Forward — poisoning it if the arena re-vended
			// it between the two Puts. The list is at most a few entries
			// (one per graph output), so the scan is free.
			t := e.vals[n.ID]
			dup := false
			for _, r := range e.retired {
				if r == t {
					dup = true
					break
				}
			}
			if !dup {
				e.retired = append(e.retired, t)
			}
		} else {
			e.arena.Put(e.vals[n.ID])
		}
		e.vals[n.ID] = nil
	}
}

func (e *Executor) account(b int64) {
	e.liveBytes += b
	if e.liveBytes > e.PeakLiveBytes {
		e.PeakLiveBytes = e.liveBytes
	}
}

// Backward propagates gradients from the graph outputs (seeded with
// ones, i.e. d loss / d loss = 1) into the parameter store's Grad
// accumulators. Forward must have been called first.
func (e *Executor) Backward() error {
	grads := e.grads
	for i := range grads {
		grads[i] = nil
	}
	for _, out := range e.g.Outputs {
		g := e.arena.GetRaw(out.Shape...)
		g.Fill(1)
		grads[out.ID] = g
	}
	for i := len(e.topo) - 1; i >= 0; i-- {
		n := e.topo[i]
		if n.Kind != KindOp {
			continue
		}
		gradOut := grads[n.ID]
		if gradOut == nil {
			continue // node does not influence any output
		}
		in := e.inbufs[n.ID]
		for j, src := range n.Inputs {
			in[j] = nil
			if n.Op.NeedsInput(j) {
				in[j] = e.vals[src.ID]
				if in[j] == nil {
					return fmt.Errorf("executor: backward of %s needs released input %s", n, src)
				}
			}
		}
		var out *tensor.Tensor
		if n.Op.NeedsOutput() {
			out = e.vals[n.ID]
		}
		opStart := e.hookStart()
		gin := e.ginbufs[n.ID]
		for j := range gin {
			gin[j] = nil
		}
		n.Op.Backward(e.arena, gradOut, in, e.inShapes[n.ID], out, e.stashes[n.ID], gin)
		if e.Hook != nil {
			var produced int64
			var first *tensor.Tensor
			for _, g := range gin {
				if g != nil {
					if first == nil {
						first = g
					}
					produced += g.Bytes()
				}
			}
			e.Hook(OpEvent{
				Name: n.Name, Kind: n.Op.Kind(), Backward: true,
				Start: opStart, Dur: e.hookStart() - opStart,
				OutputBytes: produced,
				Output:      first,
			})
		}
		// Summation ops return gradOut itself as each addend's gradient
		// (§4.2's shared error terms). Count the aliases up front: a
		// uniquely-aliased gradOut may be adopted by its consumer, but
		// multiple aliases must be copied — with arena recycling, two
		// grads slots sharing one tensor would otherwise reclaim it
		// while the other still reads it.
		aliases := 0
		for _, g := range gin {
			if g == gradOut {
				aliases++
			}
		}
		adopted := false
		for j, g := range gin {
			if g == nil {
				continue
			}
			src := n.Inputs[j]
			if !g.Shape().Equal(src.Shape) {
				return fmt.Errorf("executor: %s grad %d has shape %v, want %v", n, j, g.Shape(), src.Shape)
			}
			switch src.Kind {
			case KindParam:
				tensor.AXPY(e.store.Lookup(src.Name).Grad, 1, g)
				if g != gradOut {
					e.arena.Put(g)
				}
			default:
				if grads[src.ID] == nil {
					if g == gradOut {
						// Adopting the alias is only safe when this is
						// its sole use and no later backward op will
						// accumulate into it — otherwise the in-place
						// AXPY (or arena reuse) would corrupt the other
						// aliases' still-pending gradients.
						if aliases > 1 || len(e.cons[src.ID]) > 1 {
							c := e.arena.GetRaw(g.Shape()...)
							c.CopyFrom(g)
							g = c
						} else {
							adopted = true
						}
					}
					grads[src.ID] = g
				} else {
					tensor.AXPY(grads[src.ID], 1, g)
					if g != gradOut {
						e.arena.Put(g)
					}
				}
			}
		}
		if !adopted {
			e.arena.Put(gradOut)
		}
		// This node's own gradient and stash are dead now.
		grads[n.ID] = nil
		e.stashes[n.ID] = nil
		e.release(n)
	}
	// Gradients that flowed into non-op leaves (graph inputs) have no
	// consumer: reclaim them, or each step would leak one arena buffer
	// per input and the warmed training loop would allocate forever.
	for i, g := range grads {
		if g != nil {
			e.arena.Put(g)
			grads[i] = nil
		}
	}
	return nil
}

// Value returns the forward value of a node from the last Forward call
// (nil if released). Intended for tests and examples.
func (e *Executor) Value(n *Node) *tensor.Tensor { return e.vals[n.ID] }
