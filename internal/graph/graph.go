// Package graph implements the computation-graph IR at the heart of this
// reproduction: a directed acyclic graph whose nodes are mathematical
// operations and whose edges are producer-consumer tensor flows (§4 of
// the paper). The same graph serves three consumers:
//
//   - the CPU executor (exec.go), which runs real forward/backward
//     arithmetic for the accuracy experiments;
//   - the Split-CNN transformation (internal/core), which rewrites the
//     graph to operate on independent spatial patches; and
//   - HMMS (internal/hmms), which serializes the graph, derives the
//     backward operation list, and plans memory from the ops' declared
//     stash sets, sizes, FLOPs and workspace requirements.
package graph

import (
	"fmt"

	"splitcnn/internal/tensor"
)

// Kind distinguishes the three node species.
type Kind int

// Node kinds.
const (
	KindInput Kind = iota // externally fed tensor (images, labels)
	KindParam             // trainable parameter, resolved via a ParamStore
	KindOp                // mathematical operation
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindParam:
		return "param"
	case KindOp:
		return "op"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is a mathematical operation with a single output tensor. Besides
// computing forward values and gradients, every op declares the metadata
// the memory planner needs: which operands must be stashed for the
// backward pass, how many FLOPs it performs, and how much scratch
// workspace it wants (the cuDNN-workspace analogue, §6.3).
type Op interface {
	// Kind returns a short operation identifier such as "conv" or "relu".
	Kind() string
	// OutShape computes the output shape from input shapes.
	OutShape(in []tensor.Shape) (tensor.Shape, error)
	// ForwardInto computes the output into dst, a tensor of the declared
	// output shape that the caller owns (an arena buffer, a window of a
	// compiled slab, a plain allocation) and that never aliases an
	// input. Every element of dst is written. Scratch and any stash
	// come from a; a nil arena means the heap. The returned stash is
	// either nil or a bare *tensor.Tensor vended by a (pointers cross
	// the `any` boundary without boxing) and is handed verbatim to
	// Backward, which returns it to the arena. A caller that will not
	// run Backward returns the stash to the arena itself.
	ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) (stash any)
	// Backward writes the gradient with respect to each input into gin
	// (len(gin) == len(in), entries pre-nil'd; nil means "no
	// gradient"), drawing gradient tensors and scratch from a. Inputs
	// whose NeedsInput is false and the output when NeedsOutput is false
	// are passed as nil: the executor frees them eagerly, exactly as the
	// memory planner assumes. inShapes carries every input's static
	// shape — including released inputs — so shape-only adjoints
	// (flatten, average pooling, patch extraction) need no stash at all.
	// Gradients written to gin must be distinct tensors or aliases of
	// gradOut (which the executor copies before reuse); two gin entries
	// must not alias each other otherwise.
	Backward(a *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, inShapes []tensor.Shape, out *tensor.Tensor, stash any, gin []*tensor.Tensor)
	// NeedsInput reports whether input i must be kept (or offloaded and
	// prefetched) for the backward pass.
	NeedsInput(i int) bool
	// NeedsOutput reports whether the forward output must be kept for
	// the backward pass.
	NeedsOutput() bool
	// FLOPs estimates the forward floating-point operation count.
	FLOPs(in []tensor.Shape, out tensor.Shape) int64
	// WorkspaceBytes estimates scratch memory used during the forward
	// computation (e.g. the im2col buffer standing in for cuDNN
	// workspace).
	WorkspaceBytes(in []tensor.Shape, out tensor.Shape) int64
}

// WindowOp is implemented by window-based operations (convolution and
// pooling): they expose their window geometry and can be re-instantiated
// with other padding, per Split-CNN patch or distributed shard.
type WindowOp interface {
	Op
	Window() tensor.ConvParams
	WithPad(tensor.Pad2D) Op
}

// Node is a vertex of the computation graph.
type Node struct {
	ID     int
	Name   string
	Kind   Kind
	Op     Op // non-nil iff Kind == KindOp
	Inputs []*Node
	Shape  tensor.Shape
}

// String renders "name#id(kind)".
func (n *Node) String() string {
	k := n.Kind.String()
	if n.Kind == KindOp {
		k = n.Op.Kind()
	}
	return fmt.Sprintf("%s#%d(%s)", n.Name, n.ID, k)
}

// Graph is a DAG of nodes. Nodes are stored in insertion order, which is
// a topological order by construction (an op's inputs must exist before
// the op is added); Topo verifies this invariant.
type Graph struct {
	Nodes   []*Node
	Outputs []*Node // usually a single loss node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Input adds an externally-fed tensor node (e.g. images or labels).
func (g *Graph) Input(name string, shape tensor.Shape) *Node {
	return g.add(&Node{Name: name, Kind: KindInput, Shape: shape.Clone()})
}

// Param adds a trainable-parameter node. Its value and gradient live in
// a ParamStore keyed by name, so independently built graphs (the unsplit
// model, its split variant, per-minibatch stochastic rewrites) share the
// same weights.
func (g *Graph) Param(name string, shape tensor.Shape) *Node {
	return g.add(&Node{Name: name, Kind: KindParam, Shape: shape.Clone()})
}

// Add appends an operation node consuming the given inputs.
func (g *Graph) Add(name string, op Op, inputs ...*Node) *Node {
	shapes := make([]tensor.Shape, len(inputs))
	for i, in := range inputs {
		if in == nil {
			panic(fmt.Sprintf("graph.Add(%s): nil input %d", name, i))
		}
		shapes[i] = in.Shape
	}
	out, err := op.OutShape(shapes)
	if err != nil {
		panic(fmt.Sprintf("graph.Add(%s %s): %v", name, op.Kind(), err))
	}
	return g.add(&Node{Name: name, Kind: KindOp, Op: op, Inputs: inputs, Shape: out})
}

func (g *Graph) add(n *Node) *Node {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n
}

// SetOutput marks nodes as graph outputs (typically the loss).
func (g *Graph) SetOutput(nodes ...*Node) { g.Outputs = nodes }

// Topo returns the nodes in topological order and verifies the
// construction-order invariant.
func (g *Graph) Topo() ([]*Node, error) {
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in.ID >= n.ID {
				return nil, fmt.Errorf("graph: node %s consumes later node %s", n, in)
			}
			if in.ID < 0 || in.ID >= len(g.Nodes) || g.Nodes[in.ID] != in {
				return nil, fmt.Errorf("graph: node %s consumes foreign node %s", n, in)
			}
		}
	}
	return g.Nodes, nil
}

// Consumers returns, for each node ID, the list of op nodes reading it.
func (g *Graph) Consumers() [][]*Node {
	out := make([][]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			out[in.ID] = append(out[in.ID], n)
		}
	}
	return out
}

// Params returns the parameter nodes in insertion order.
func (g *Graph) Params() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindParam {
			out = append(out, n)
		}
	}
	return out
}

// OpNodes returns the operation nodes in topological order.
func (g *Graph) OpNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindOp {
			out = append(out, n)
		}
	}
	return out
}

// FindNode returns the first node with the given name, or nil.
func (g *Graph) FindNode(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}
