// Package hmms implements the paper's Heterogeneous Memory Management
// System (§4): the five-step offline pipeline that takes a computation
// graph and produces an executable memory plan for a GPU-class device.
//
//  1. Splitting and graph generation — splitting is internal/core's job;
//     this package serializes the (possibly split) graph into a forward
//     operation list and generates the mirrored backward operation list
//     (BuildProgram).
//  2. Storage assignment and optimization — every tensor is assigned a
//     Tensor Storage Object; the in-place ReLU and summation-error
//     sharing optimizations fold eligible tensors onto shared TSOs
//     (AssignStorage).
//  3. Offload and prefetch planning — Algorithm 1 and its mirrored
//     prefetch pass derive, per offloaded TSO, the offload start, the
//     end-of-offload synchronization point, the prefetch start and the
//     end-of-prefetch synchronization point (PlanOffload); a vDNN-style
//     layer-wise planner (PlanLayerWise) serves as the baseline.
//  4. Static memory planning — a first-fit allocator assigns every TSO a
//     static offset in one of three pools (host pinned, device
//     parameter, device general purpose) for exactly its planned
//     lifetime (PlanMemory).
//
// Step 5 (execution) lives in internal/sim, which replays a planned
// program on the discrete-event device model.
package hmms

import (
	"fmt"

	"splitcnn/internal/costmodel"
	"splitcnn/internal/graph"
	"splitcnn/internal/tensor"
)

// Phase distinguishes forward from backward operations.
type Phase int

// Phases.
const (
	Forward Phase = iota
	Backward
)

// String names the phase.
func (p Phase) String() string {
	if p == Forward {
		return "fwd"
	}
	return "bwd"
}

// TensorKind classifies program tensors for pool routing and planning.
type TensorKind int

// Tensor kinds.
const (
	// KInput is an externally fed tensor (images, labels).
	KInput TensorKind = iota
	// KParam is a trainable parameter (device parameter pool).
	KParam
	// KParamGrad is a parameter gradient (device parameter pool).
	KParamGrad
	// KActivation is a forward intermediate result.
	KActivation
	// KGradient is a back-propagated error tensor.
	KGradient
)

// String names the kind.
func (k TensorKind) String() string {
	switch k {
	case KInput:
		return "input"
	case KParam:
		return "param"
	case KParamGrad:
		return "param_grad"
	case KActivation:
		return "activation"
	case KGradient:
		return "gradient"
	}
	return fmt.Sprintf("TensorKind(%d)", int(k))
}

// TensorID indexes Program.Tensors.
type TensorID int

// TensorInfo describes one conceptual tensor of the serialized program.
type TensorInfo struct {
	ID    TensorID
	Name  string
	Kind  TensorKind
	Bytes int64
	// Producer is the op index of the first write (-1 for inputs/params).
	Producer int
	// LastWrite is the op index of the final write (gradients may be
	// accumulated by several backward ops).
	LastWrite int
	// Reads lists the op indices reading the tensor, in program order.
	Reads []int
	// Stashed reports whether any backward op reads the tensor — these
	// are the "intermediate results that will need to be consumed again
	// in the backward pass" of Figure 1, the offload candidates.
	Stashed bool
}

// LastForwardRead returns the last forward-phase read index, or -1.
func (t *TensorInfo) LastForwardRead(p *Program) int {
	last := -1
	for _, r := range t.Reads {
		if p.Ops[r].Phase == Forward {
			last = r
		}
	}
	return last
}

// FirstBackwardRead returns the first backward-phase read index, or -1.
func (t *TensorInfo) FirstBackwardRead(p *Program) int {
	for _, r := range t.Reads {
		if p.Ops[r].Phase == Backward {
			return r
		}
	}
	return -1
}

// LastUse returns the last op index touching the tensor.
func (t *TensorInfo) LastUse() int {
	last := t.LastWrite
	if n := len(t.Reads); n > 0 && t.Reads[n-1] > last {
		last = t.Reads[n-1]
	}
	return last
}

// OpExec is one serialized operation.
type OpExec struct {
	Index int
	Name  string
	Kind  string
	Phase Phase
	// NodeID is the originating graph node.
	NodeID int
	Reads  []TensorID
	Writes []TensorID
	// Time is the profiled (cost-model) execution time in seconds.
	Time float64
	// Workspace is scratch memory alive only during this op.
	Workspace int64
	// InPlaceEligible marks ops whose output may share the input's TSO.
	InPlaceEligible bool
	// SharedErrorStorage marks summation ops whose back-propagated
	// error terms are identical (§4.2).
	SharedErrorStorage bool
}

// Program is the serialized forward+backward operation list of one
// training step, with full tensor metadata — the object every later
// HMMS stage consumes.
type Program struct {
	Ops     []OpExec
	Tensors []*TensorInfo
	// NumForward is the number of forward ops; Ops[NumForward:] is the
	// backward pass.
	NumForward int
	Device     costmodel.DeviceSpec
}

// ForwardOps returns the forward slice of the program.
func (p *Program) ForwardOps() []OpExec { return p.Ops[:p.NumForward] }

// BackwardOps returns the backward slice of the program.
func (p *Program) BackwardOps() []OpExec { return p.Ops[p.NumForward:] }

// ComputeTime returns the sum of all op times (the no-offload lower
// bound on step latency).
func (p *Program) ComputeTime() float64 {
	var t float64
	for _, op := range p.Ops {
		t += op.Time
	}
	return t
}

// ForwardTime returns the summed forward op time.
func (p *Program) ForwardTime() float64 {
	var t float64
	for _, op := range p.ForwardOps() {
		t += op.Time
	}
	return t
}

// BackwardTime returns the summed backward op time.
func (p *Program) BackwardTime() float64 { return p.ComputeTime() - p.ForwardTime() }

// StashedBytes returns the total bytes of stashed activations — the
// cumulative "generated data size" of Figure 1 (externally fed inputs
// are not layer-generated intermediate results and are excluded, though
// they remain offload candidates).
func (p *Program) StashedBytes() int64 {
	var b int64
	for _, t := range p.Tensors {
		if t.Stashed && t.Kind == KActivation {
			b += t.Bytes
		}
	}
	return b
}

// Timer supplies per-op forward and backward execution times during
// program construction. The default (cost-model) timer evaluates the
// device roofline; internal/profile provides a measured timer that runs
// each op for real, following the paper's §4.3 profiling methodology.
type Timer func(n *graph.Node, in []tensor.Shape) (fwd, bwd float64)

// CostModelTimer derives op times from the device roofline model.
func CostModelTimer(dev costmodel.DeviceSpec) Timer {
	return func(n *graph.Node, in []tensor.Shape) (float64, float64) {
		return dev.ForwardTime(n.Op, in, n.Shape), dev.BackwardTime(n.Op, in, n.Shape)
	}
}

// BuildProgram serializes g (step 1-2 of §4.1): forward ops in
// topological order followed by the generated backward graph in reverse
// order, with per-op times from the device cost model and full
// read/write sets over conceptual tensors.
func BuildProgram(g *graph.Graph, dev costmodel.DeviceSpec) (*Program, error) {
	return BuildProgramTimed(g, dev, CostModelTimer(dev))
}

// BuildProgramTimed is BuildProgram with explicit per-op timing — the
// hook the measured profiler uses.
func BuildProgramTimed(g *graph.Graph, dev costmodel.DeviceSpec, timer Timer) (*Program, error) {
	topo, err := g.Topo()
	if err != nil {
		return nil, err
	}
	for _, o := range g.Outputs {
		if o.ID < 0 || o.ID >= len(topo) || topo[o.ID] != o {
			return nil, fmt.Errorf("hmms: output %s is not a node of the graph", o)
		}
	}
	// Topo verified that node IDs are dense indices into topo, so every
	// per-node table below is a slice indexed by node ID.
	opNodes := g.OpNodes()
	params := 0
	for _, n := range topo {
		if n.Kind == graph.KindParam {
			params++
		}
	}
	// One value per node, one gradient per parameter and at most one per
	// op node: the tensors live in one backing array sized for that
	// bound, which therefore never moves.
	infos := make([]TensorInfo, 0, len(topo)+params+len(opNodes))
	p := &Program{
		Device:  dev,
		Ops:     make([]OpExec, 0, 2*len(opNodes)),
		Tensors: make([]*TensorInfo, 0, cap(infos)),
	}

	newTensor := func(name string, kind TensorKind, bytes int64) TensorID {
		id := TensorID(len(p.Tensors))
		infos = append(infos, TensorInfo{ID: id, Name: name, Kind: kind, Bytes: bytes, Producer: -1, LastWrite: -1})
		p.Tensors = append(p.Tensors, &infos[len(infos)-1])
		return id
	}

	// Conceptual tensors: one value per node; grad tensors created on
	// demand for op nodes and params (noGrad marks the nodes without).
	const noGrad = TensorID(-1)
	val := make([]TensorID, len(topo))
	grad := make([]TensorID, len(topo))
	for _, n := range topo {
		grad[n.ID] = noGrad
		switch n.Kind {
		case graph.KindInput:
			val[n.ID] = newTensor(n.Name, KInput, n.Shape.Bytes())
		case graph.KindParam:
			val[n.ID] = newTensor(n.Name, KParam, n.Shape.Bytes())
			grad[n.ID] = newTensor(n.Name+".grad", KParamGrad, n.Shape.Bytes())
		case graph.KindOp:
			val[n.ID] = newTensor(n.Name, KActivation, n.Shape.Bytes())
		}
	}

	addOp := func(op OpExec) {
		op.Index = len(p.Ops)
		if op.Phase == Backward {
			for _, r := range op.Reads {
				t := p.Tensors[r]
				t.Stashed = t.Stashed || t.Kind == KActivation || t.Kind == KInput
			}
		}
		for _, w := range op.Writes {
			if p.Tensors[w].Producer < 0 {
				p.Tensors[w].Producer = op.Index
			}
			p.Tensors[w].LastWrite = op.Index
		}
		p.Ops = append(p.Ops, op)
	}

	// Every op's read and write lists are cut from one shared array (one
	// entry per input and one per output forward, at most twice the
	// inputs plus two backward); list caps each at its length, so the
	// next list appended never touches it.
	inputs := 0
	for _, n := range opNodes {
		inputs += len(n.Inputs)
	}
	ids := make([]TensorID, 0, 3*inputs+3*len(opNodes))
	list := func(from int) []TensorID { return ids[from:len(ids):len(ids)] }

	// Each op node's input shapes, kept for its backward op, are cut
	// from one array too.
	shapeBacking := make([]tensor.Shape, inputs)
	inShapes := make([][]tensor.Shape, len(topo))

	// Forward pass.
	bwdTimes := make([]float64, len(topo))
	for _, n := range opNodes {
		shapes := shapeBacking[:len(n.Inputs):len(n.Inputs)]
		shapeBacking = shapeBacking[len(n.Inputs):]
		from := len(ids)
		for i, in := range n.Inputs {
			ids = append(ids, val[in.ID])
			shapes[i] = in.Shape
		}
		inShapes[n.ID] = shapes
		reads := list(from)
		ids = append(ids, val[n.ID])
		writes := list(len(ids) - 1)
		fwdT, bwdT := timer(n, shapes)
		bwdTimes[n.ID] = bwdT
		_, inPlace := n.Op.(interface{ InPlaceEligible() bool })
		_, sharedErr := n.Op.(interface{ SharedErrorStorage() bool })
		addOp(OpExec{
			Name:               n.Name,
			Kind:               n.Op.Kind(),
			Phase:              Forward,
			NodeID:             n.ID,
			Reads:              reads,
			Writes:             writes,
			Time:               fwdT,
			Workspace:          n.Op.WorkspaceBytes(shapes, n.Shape),
			InPlaceEligible:    inPlace,
			SharedErrorStorage: sharedErr,
		})
	}
	p.NumForward = len(p.Ops)

	// Gradient tensors for op nodes that influence an output.
	influences := make([]bool, len(topo))
	for _, o := range g.Outputs {
		influences[o.ID] = true
	}
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if !influences[n.ID] {
			continue
		}
		for _, in := range n.Inputs {
			influences[in.ID] = true
		}
	}
	for _, n := range opNodes {
		if influences[n.ID] {
			grad[n.ID] = newTensor(n.Name+".grad", KGradient, n.Shape.Bytes())
		}
	}
	// Seed gradients of outputs have no producer op; mark them written
	// "at" the start of the backward pass.
	for _, o := range g.Outputs {
		if gid := grad[o.ID]; gid != noGrad {
			p.Tensors[gid].Producer = p.NumForward
			p.Tensors[gid].LastWrite = p.NumForward
		}
	}

	// Backward pass: reverse forward order (§4.1: "the order such
	// operations appear in the backward graph is the reverse of the
	// serialized forward order").
	for i := len(opNodes) - 1; i >= 0; i-- {
		n := opNodes[i]
		gid := grad[n.ID]
		if gid == noGrad {
			continue
		}
		from := len(ids)
		ids = append(ids, gid)
		for j, in := range n.Inputs {
			if n.Op.NeedsInput(j) {
				ids = append(ids, val[in.ID])
			}
		}
		if n.Op.NeedsOutput() {
			ids = append(ids, val[n.ID])
		}
		reads := list(from)
		from = len(ids)
		for _, in := range n.Inputs {
			if g := grad[in.ID]; g != noGrad {
				ids = append(ids, g)
			}
		}
		writes := list(from)
		shapes := inShapes[n.ID]
		_, sharedErr := n.Op.(interface{ SharedErrorStorage() bool })
		addOp(OpExec{
			Name:               n.Name + ".bwd",
			Kind:               n.Op.Kind(),
			Phase:              Backward,
			NodeID:             n.ID,
			Reads:              reads,
			Writes:             writes,
			Time:               bwdTimes[n.ID],
			Workspace:          n.Op.WorkspaceBytes(shapes, n.Shape),
			SharedErrorStorage: sharedErr,
		})
	}

	// Each tensor's reads, in program order, cut from one array: a
	// counting pass sizes every list, a second fills them.
	count := make([]int, len(p.Tensors))
	total := 0
	for i := range p.Ops {
		for _, r := range p.Ops[i].Reads {
			count[r]++
			total++
		}
	}
	backing := make([]int, total)
	for id, t := range p.Tensors {
		if c := count[id]; c > 0 {
			t.Reads, backing = backing[:0:c], backing[c:]
		}
	}
	for i := range p.Ops {
		for _, r := range p.Ops[i].Reads {
			t := p.Tensors[r]
			t.Reads = append(t.Reads, i)
		}
	}
	return p, nil
}

// LayerProfile is one row of the Figure 1 analysis.
type LayerProfile struct {
	Name string
	Kind string
	// Time is the forward execution time of the layer.
	Time float64
	// GeneratedBytes is the size of intermediate results this layer
	// produces that the backward pass will consume again.
	GeneratedBytes int64
	// OffloadableBytes is LinkBandwidth × Time: what can be moved to
	// the host while this layer executes.
	OffloadableBytes int64
	// Cumulative sums up to and including this layer.
	CumGenerated, CumOffloadable int64
}

// ProfileForward reproduces the Figure 1 analysis: per forward layer,
// generated vs. offload-able data sizes and their cumulative curves.
func (p *Program) ProfileForward() []LayerProfile {
	out := make([]LayerProfile, 0, p.NumForward)
	var cumG, cumO int64
	for _, op := range p.ForwardOps() {
		var gen int64
		for _, w := range op.Writes {
			if p.Tensors[w].Stashed {
				gen += p.Tensors[w].Bytes
			}
		}
		off := int64(op.Time * p.Device.LinkBandwidth)
		cumG += gen
		cumO += off
		out = append(out, LayerProfile{
			Name: op.Name, Kind: op.Kind, Time: op.Time,
			GeneratedBytes: gen, OffloadableBytes: off,
			CumGenerated: cumG, CumOffloadable: cumO,
		})
	}
	return out
}

// TheoreticalOffloadLimit returns the fraction of stashed data that can
// be offloaded without slowing computation: cumulative offload-able over
// cumulative generated at the end of the forward pass, capped at 1 —
// the quantity the paper derives from Figure 1 (100% for VGG-19, ~55%
// for ResNet-18, ~40% for ResNet-50).
func (p *Program) TheoreticalOffloadLimit() float64 {
	prof := p.ProfileForward()
	if len(prof) == 0 {
		return 0
	}
	last := prof[len(prof)-1]
	if last.CumGenerated == 0 {
		return 1
	}
	return min(1, float64(last.CumOffloadable)/float64(last.CumGenerated))
}
