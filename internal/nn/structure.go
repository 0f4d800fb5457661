package nn

import (
	"fmt"

	"splitcnn/internal/tensor"
)

// Add sums any number of equally-shaped tensors — the residual summation
// of the ResNet family. Because ∂(Σxᵢ)/∂xᵢ = 1, every back-propagated
// error term is identical, which is what legalizes the Summation Error
// Storage Object Sharing optimization of §4.2 (HMMS detects ops of this
// kind and maps all input error tensors onto one TSO).
type Add struct{ N int }

// Kind implements graph.Op.
func (a *Add) Kind() string { return "add" }

// PatchwiseSafe reports that summation commutes with spatial splitting.
func (a *Add) PatchwiseSafe() bool { return true }

// SharedErrorStorage marks the op for summation-error TSO sharing.
func (a *Add) SharedErrorStorage() bool { return true }

// OutShape implements graph.Op.
func (a *Add) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != a.N || a.N < 2 {
		return nil, fmt.Errorf("add: want %d inputs, got %d", a.N, len(in))
	}
	for _, s := range in[1:] {
		if !s.Equal(in[0]) {
			return nil, fmt.Errorf("add: shape mismatch %v vs %v", s, in[0])
		}
	}
	return in[0].Clone(), nil
}

// ForwardInto implements graph.Op.
func (a *Add) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	dst.CopyFrom(in[0])
	for _, x := range in[1:] {
		tensor.AXPY(dst, 1, x)
	}
	return nil
}

// Backward implements graph.Op: the same error flows to every addend.
// Every gin entry aliases gradOut, matching the storage-sharing
// optimization; the executor copies the aliases it cannot adopt.
func (a *Add) Backward(_ *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, _ []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	for i := range gin {
		gin[i] = gradOut
	}
}

// NeedsInput implements graph.Op.
func (a *Add) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (a *Add) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (a *Add) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return int64(len(in)-1) * int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op.
func (a *Add) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// ExtractPatch slices the spatial window [H0:H1) × [W0:W1) out of an
// NCHW tensor. Split-CNN inserts one per patch at the entry of a split
// region; its adjoint scatters the patch gradient back into a zero
// canvas.
type ExtractPatch struct {
	H0, H1, W0, W1 int
}

// Kind implements graph.Op.
func (e *ExtractPatch) Kind() string { return "extract_patch" }

// OutShape implements graph.Op.
func (e *ExtractPatch) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 || len(in[0]) != 4 {
		return nil, fmt.Errorf("extract_patch: want one NCHW input")
	}
	s := in[0]
	if e.H0 < 0 || e.H1 > s.H() || e.W0 < 0 || e.W1 > s.W() || e.H0 >= e.H1 || e.W0 >= e.W1 {
		return nil, fmt.Errorf("extract_patch: window [%d:%d)x[%d:%d) invalid for %v", e.H0, e.H1, e.W0, e.W1, s)
	}
	return tensor.Shape{s.N(), s.C(), e.H1 - e.H0, e.W1 - e.W0}, nil
}

// copyWindow copies between a dense NCHW patch and the equally sized
// window of canvas whose top-left corner is (h0, w0); toCanvas selects
// the direction.
func copyWindow(patch, canvas *tensor.Tensor, h0, w0 int, toCanvas bool) {
	ps, cs := patch.Shape(), canvas.Shape()
	ph, pw, h, w := ps.H(), ps.W(), cs.H(), cs.W()
	pd, cd := patch.Data(), canvas.Data()
	for nc := 0; nc < ps.N()*ps.C(); nc++ {
		for y := 0; y < ph; y++ {
			p := pd[(nc*ph+y)*pw : (nc*ph+y+1)*pw]
			c := cd[(nc*h+h0+y)*w+w0 : (nc*h+h0+y)*w+w0+pw]
			if toCanvas {
				copy(c, p)
			} else {
				copy(p, c)
			}
		}
	}
}

// ForwardInto implements graph.Op.
func (e *ExtractPatch) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	copyWindow(dst, in[0], e.H0, e.W0, false)
	return nil
}

// Backward implements graph.Op: the patch gradient lands in a zero
// canvas of the input's shape.
func (e *ExtractPatch) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	gi := a.Get(inShapes[0]...)
	copyWindow(gradOut, gi, e.H0, e.W0, true)
	gin[0] = gi
}

// NeedsInput implements graph.Op.
func (e *ExtractPatch) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (e *ExtractPatch) NeedsOutput() bool { return false }

// FLOPs implements graph.Op (pure data movement).
func (e *ExtractPatch) FLOPs([]tensor.Shape, tensor.Shape) int64 { return 0 }

// WorkspaceBytes implements graph.Op.
func (e *ExtractPatch) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// ConcatPatches reassembles an NH×NW grid of spatial patches into one
// feature map — the join point [Y_0, ..., Y_{n}]_D at the end of a split
// region. Inputs are patches in row-major (H-major) order; patches in
// one grid row must agree on H, patches in one grid column on W.
type ConcatPatches struct {
	NH, NW int
}

// Kind implements graph.Op.
func (c *ConcatPatches) Kind() string { return "concat_patches" }

// OutShape implements graph.Op.
func (c *ConcatPatches) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if c.NH < 1 || c.NW < 1 || len(in) != c.NH*c.NW {
		return nil, fmt.Errorf("concat_patches: want %dx%d inputs, got %d", c.NH, c.NW, len(in))
	}
	n, ch := in[0].N(), in[0].C()
	totalH := 0
	for i := 0; i < c.NH; i++ {
		rowH := in[i*c.NW].H()
		totalH += rowH
		for j := 0; j < c.NW; j++ {
			s := in[i*c.NW+j]
			if s.N() != n || s.C() != ch {
				return nil, fmt.Errorf("concat_patches: N/C mismatch %v vs %v", s, in[0])
			}
			if s.H() != rowH {
				return nil, fmt.Errorf("concat_patches: H mismatch in row %d: %v", i, s)
			}
		}
	}
	totalW := 0
	for j := 0; j < c.NW; j++ {
		colW := in[j].W()
		totalW += colW
		for i := 0; i < c.NH; i++ {
			if in[i*c.NW+j].W() != colW {
				return nil, fmt.Errorf("concat_patches: W mismatch in column %d", j)
			}
		}
	}
	return tensor.Shape{n, ch, totalH, totalW}, nil
}

// ForwardInto implements graph.Op: every patch is copied once, straight
// to its place in dst.
func (c *ConcatPatches) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	for i, h0 := 0, 0; i < c.NH; i++ {
		for j, w0 := 0, 0; j < c.NW; j++ {
			p := in[i*c.NW+j]
			copyWindow(p, dst, h0, w0, true)
			w0 += p.Shape().W()
		}
		h0 += in[i*c.NW].Shape().H()
	}
	return nil
}

// Backward implements graph.Op: split the gradient back into patches
// along the boundaries the input shapes record.
func (c *ConcatPatches) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	for i, h0 := 0, 0; i < c.NH; i++ {
		for j, w0 := 0, 0; j < c.NW; j++ {
			k := i*c.NW + j
			gin[k] = a.GetRaw(inShapes[k]...)
			copyWindow(gin[k], gradOut, h0, w0, false)
			w0 += inShapes[k].W()
		}
		h0 += inShapes[i*c.NW].H()
	}
}

// NeedsInput implements graph.Op.
func (c *ConcatPatches) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (c *ConcatPatches) NeedsOutput() bool { return false }

// FLOPs implements graph.Op (pure data movement).
func (c *ConcatPatches) FLOPs([]tensor.Shape, tensor.Shape) int64 { return 0 }

// WorkspaceBytes implements graph.Op.
func (c *ConcatPatches) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
