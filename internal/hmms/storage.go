package hmms

// TSOID indexes Assignment.TSOs.
type TSOID int

// TSOInfo is a Tensor Storage Object: one contiguous region of storage
// shared by one or more tensors (§4's separation of a tensor's
// conceptual presence from its physical storage).
type TSOInfo struct {
	ID TSOID
	// Bytes is the region size (the max over mapped tensors).
	Bytes int64
	// Tensors lists the mapped tensor IDs.
	Tensors []TensorID
	// Kind routes the TSO to a memory pool: KParam/KParamGrad go to the
	// device parameter pool, everything else to the general pool.
	Kind TensorKind
}

// StorageOpts toggles the §4.2 optimizations, primarily for ablation.
type StorageOpts struct {
	// InPlaceReLU lets a ReLU's output share its input's TSO when the
	// reference counter shows no other tensor needs the input.
	InPlaceReLU bool
	// ShareSummationError maps all error terms of a summation onto the
	// TSO of the summation's own output error (they are equal-valued).
	ShareSummationError bool
}

// DefaultStorageOpts enables both optimizations, as the paper does.
func DefaultStorageOpts() StorageOpts {
	return StorageOpts{InPlaceReLU: true, ShareSummationError: true}
}

// Assignment maps every program tensor to a TSO.
type Assignment struct {
	TensorTSO []TSOID
	TSOs      []*TSOInfo
	// InPlaceReLUCount / SharedErrorCount report how often each
	// optimization fired (used by tests and the ablation bench).
	InPlaceReLUCount, SharedErrorCount int
}

// TSO returns the storage object of tensor t.
func (a *Assignment) TSO(t TensorID) *TSOInfo { return a.TSOs[a.TensorTSO[t]] }

// LastWrite returns the final op index writing into the TSO.
func (a *Assignment) LastWrite(p *Program, id TSOID) int {
	last := -1
	for _, t := range a.TSOs[id].Tensors {
		if lw := p.Tensors[t].LastWrite; lw > last {
			last = lw
		}
	}
	return last
}

// AssignStorage performs step 3 of §4: each tensor receives a TSO, then
// the in-place ReLU and summation-error-sharing optimizations merge
// eligible tensors onto shared TSOs.
func AssignStorage(p *Program, opts StorageOpts) *Assignment {
	a := &Assignment{TensorTSO: make([]TSOID, len(p.Tensors))}
	// Union-find over tensors; merged groups become one TSO.
	parent := make([]int, len(p.Tensors))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) { parent[find(x)] = find(y) }

	// readers[t] = op indices reading tensor t (from tensor metadata).
	if opts.InPlaceReLU {
		for _, op := range p.ForwardOps() {
			if !op.InPlaceEligible || len(op.Reads) != 1 || len(op.Writes) != 1 {
				continue
			}
			in := p.Tensors[op.Reads[0]]
			// The reference counter must show nobody else references the
			// input's storage: the input is an op-produced activation,
			// this op is its only reader, and it is not stashed for the
			// backward pass.
			if in.Kind != KActivation || in.Stashed || len(in.Reads) != 1 {
				continue
			}
			union(int(op.Writes[0]), int(op.Reads[0]))
			a.InPlaceReLUCount++
		}
	}
	if opts.ShareSummationError {
		for _, op := range p.BackwardOps() {
			if !op.SharedErrorStorage {
				continue
			}
			// op reads the output-error tensor (first read) and writes
			// one error term per summand; ∂y/∂x_i = 1 makes them all
			// equal, so they may share the output error's TSO — provided
			// the error term is written by this op alone (no gradient
			// accumulation from other consumers).
			outErr := op.Reads[0]
			for _, w := range op.Writes {
				wt := p.Tensors[w]
				if wt.Producer == wt.LastWrite && wt.Producer == op.Index {
					union(int(w), int(outErr))
					a.SharedErrorCount++
				}
			}
		}
	}

	// Every union-find root becomes one TSO, numbered in order of its
	// first member tensor. The TSOs and their member lists are cut from
	// two arrays sized by this counting pass.
	tsoOf := make([]TSOID, len(p.Tensors)) // by root; -1 until numbered
	for i := range tsoOf {
		tsoOf[i] = -1
	}
	var sizes []int
	for i := range p.Tensors {
		root := find(i)
		if tsoOf[root] < 0 {
			tsoOf[root] = TSOID(len(sizes))
			sizes = append(sizes, 0)
		}
		a.TensorTSO[i] = tsoOf[root]
		sizes[tsoOf[root]]++
	}
	infos := make([]TSOInfo, len(sizes))
	a.TSOs = make([]*TSOInfo, len(sizes))
	backing := make([]TensorID, len(p.Tensors))
	for id, n := range sizes {
		infos[id] = TSOInfo{ID: TSOID(id), Tensors: backing[:0:n]}
		backing = backing[n:]
		a.TSOs[id] = &infos[id]
	}
	for i, t := range p.Tensors {
		tso := a.TSOs[a.TensorTSO[i]]
		if len(tso.Tensors) == 0 {
			tso.Kind = t.Kind
		}
		tso.Tensors = append(tso.Tensors, t.ID)
		if t.Bytes > tso.Bytes {
			tso.Bytes = t.Bytes
		}
		// Param-pool routing wins if any member is a parameter.
		if t.Kind == KParam || t.Kind == KParamGrad {
			tso.Kind = t.Kind
		}
	}
	return a
}
