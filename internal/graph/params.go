package graph

import (
	"fmt"
	"math/rand"
	"sort"

	"splitcnn/internal/tensor"
)

// Param holds a trainable tensor, its gradient accumulator, and the
// optimizer's momentum buffer.
type Param struct {
	Name     string
	Value    *tensor.Tensor
	Grad     *tensor.Tensor
	Velocity *tensor.Tensor
	// NoDecay marks parameters exempt from weight decay (BN scale/shift
	// and biases, following the paper's training recipes).
	NoDecay bool
	// Frozen excludes the parameter from optimizer updates entirely.
	Frozen bool
}

// ParamStore owns every trainable parameter of a model, keyed by name.
// Multiple graphs (the baseline network, its split variant, and the
// per-minibatch stochastic rewrites) resolve their KindParam nodes
// against one shared store, which is what lets a Stochastic Split-CNN
// train weights that are later evaluated on the unsplit network (§3.3).
type ParamStore struct {
	params map[string]*Param
	// sorted caches All()'s result; rebuilt whenever a parameter has
	// been created since (so steady-state optimizer loops don't allocate).
	sorted []*Param
}

// NewParamStore returns an empty store.
func NewParamStore() *ParamStore {
	return &ParamStore{params: make(map[string]*Param)}
}

// Get returns the named parameter, creating a zero-initialized one of
// the given shape on first use. It panics if an existing parameter has a
// different shape — two graphs disagreeing on a parameter's shape is a
// model-construction bug.
func (s *ParamStore) Get(name string, shape tensor.Shape) *Param {
	if p, ok := s.params[name]; ok {
		if !p.Value.Shape().Equal(shape) {
			panic(fmt.Sprintf("param %q: shape %v requested but store has %v", name, shape, p.Value.Shape()))
		}
		return p
	}
	p := &Param{
		Name:     name,
		Value:    tensor.New(shape...),
		Grad:     tensor.New(shape...),
		Velocity: tensor.New(shape...),
	}
	s.params[name] = p
	return p
}

// Lookup returns the named parameter or nil.
func (s *ParamStore) Lookup(name string) *Param {
	return s.params[name]
}

// All returns the parameters sorted by name for deterministic iteration.
// The returned slice is cached and shared between calls; callers must
// not modify it.
func (s *ParamStore) All() []*Param {
	if len(s.sorted) != len(s.params) {
		out := make([]*Param, 0, len(s.params))
		for _, p := range s.params {
			out = append(out, p)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		s.sorted = out
	}
	return s.sorted
}

// Len returns the number of parameters.
func (s *ParamStore) Len() int { return len(s.params) }

// NumElems returns the total number of scalar parameters (|G| in the
// distributed-training model of §6.4 counts these as gradient elements).
func (s *ParamStore) NumElems() int64 {
	var n int64
	for _, p := range s.params {
		n += int64(p.Value.Elems())
	}
	return n
}

// Bytes returns the total parameter footprint in bytes.
func (s *ParamStore) Bytes() int64 { return s.NumElems() * 4 }

// ZeroGrads clears every gradient accumulator.
func (s *ParamStore) ZeroGrads() {
	for _, p := range s.params {
		p.Grad.Zero()
	}
}

// Replica returns a worker-local view of the store for data-parallel
// training: parameter *values* are shared (the same tensors), while
// gradient accumulators are private per replica so concurrent backward
// passes do not race; the all-reduce step sums them back into the
// master. Velocity buffers stay with the master (only the master runs
// the optimizer).
func (s *ParamStore) Replica() *ParamStore {
	r := NewParamStore()
	for name, p := range s.params {
		r.params[name] = &Param{
			Name:     p.Name,
			Value:    p.Value, // shared
			Grad:     tensor.New(p.Value.Shape()...),
			Velocity: p.Velocity, // unused by replicas
			NoDecay:  p.NoDecay,
			Frozen:   p.Frozen,
		}
	}
	return r
}

// Initializer assigns initial values to a freshly created parameter.
type Initializer func(rng *rand.Rand, p *Param)

// InitFromGraph materializes (and initializes, on first sight) every
// parameter a graph references. init may be nil to leave new parameters
// zero-valued.
func (s *ParamStore) InitFromGraph(g *Graph, rng *rand.Rand, init Initializer) {
	for _, n := range g.Params() {
		if _, ok := s.params[n.Name]; ok {
			s.Get(n.Name, n.Shape) // shape check
			continue
		}
		p := s.Get(n.Name, n.Shape)
		if init != nil {
			init(rng, p)
		}
	}
}
