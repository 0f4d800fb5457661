package graph

import (
	"fmt"
	"sort"
	"strings"

	"splitcnn/internal/tensor"
)

// overrideState caches the reachability analysis for one override name
// set: the executor's reach with the overridden nodes cut. The
// distributed router always overrides the same node, so a single-entry
// cache makes repeat calls allocation-light.
type overrideState struct {
	key string
	ids []int // overridden node IDs
	reach
	over []*tensor.Tensor // per-node override values, cleared after use
}

func overrideKey(overrides map[string]*tensor.Tensor) string {
	names := make([]string, 0, len(overrides))
	for name := range overrides {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "\x00")
}

func (e *Executor) overrideState(overrides map[string]*tensor.Tensor) (*overrideState, error) {
	key := overrideKey(overrides)
	if e.ovr != nil && e.ovr.key == key {
		return e.ovr, nil
	}
	st := &overrideState{key: key, over: make([]*tensor.Tensor, len(e.g.Nodes))}
	cut := make([]bool, len(e.g.Nodes))
	for name := range overrides {
		n := e.g.FindNode(name)
		if n == nil || n.Kind != KindOp {
			return nil, fmt.Errorf("executor: override %q is not an op node", name)
		}
		cut[n.ID] = true
		st.ids = append(st.ids, n.ID)
	}
	st.reach = reachOf(e.topo, e.g.Outputs, cut)
	for _, id := range st.ids {
		if !st.need[id] {
			return nil, fmt.Errorf("executor: override %q does not feed any graph output", e.g.Nodes[id].Name)
		}
	}
	e.ovr = st
	return st, nil
}

// ForwardFrom runs a forward pass with the values of the named op nodes
// supplied by the caller instead of computed: ancestors that only exist
// to produce an overridden value are skipped entirely (their input
// feeds may be omitted), and the overridden tensors remain caller-owned
// — the executor never recycles them into its arena.
//
// This is the scatter/gather seam of distributed split inference: the
// router assembles a mid-graph feature map from shard workers and
// resumes the remaining "tail" of the graph here. ForwardFrom is a
// forward-only entry point; calling Backward after it is unsupported
// (the skipped ancestors' activations do not exist).
func (e *Executor) ForwardFrom(feeds Feeds, overrides map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(overrides) == 0 {
		return e.Forward(feeds)
	}
	st, err := e.overrideState(overrides)
	if err != nil {
		return nil, err
	}
	for _, id := range st.ids {
		t := overrides[e.g.Nodes[id].Name]
		if t == nil {
			return nil, fmt.Errorf("executor: nil override for %q", e.g.Nodes[id].Name)
		}
		if !t.Shape().Equal(e.g.Nodes[id].Shape) {
			return nil, fmt.Errorf("executor: override %q has shape %v, node wants %v",
				e.g.Nodes[id].Name, t.Shape(), e.g.Nodes[id].Shape)
		}
		st.over[id] = t
	}
	outs, err := e.forward(feeds, st.over, st.reach)
	for _, id := range st.ids {
		st.over[id] = nil
	}
	return outs, err
}
