package nn

import (
	"fmt"

	"splitcnn/internal/tensor"
)

// Flatten reshapes [N, C, H, W] to [N, C·H·W].
type Flatten struct{}

// Kind implements graph.Op.
func (Flatten) Kind() string { return "flatten" }

// OutShape implements graph.Op.
func (Flatten) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 || len(in[0]) < 2 {
		return nil, fmt.Errorf("flatten: want one input of rank >= 2")
	}
	return tensor.Shape{in[0][0], in[0].Elems() / in[0][0]}, nil
}

// IsReshape implements graph.ReshapeOp: the compiler replaces flatten
// with a view of the producer's storage.
func (Flatten) IsReshape() bool { return true }

// ForwardInto implements graph.Op.
func (Flatten) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	dst.CopyFrom(in[0])
	return nil
}

// Backward implements graph.Op.
func (Flatten) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	gi := a.GetRaw(inShapes[0]...)
	gi.CopyFrom(gradOut)
	gin[0] = gi
}

// NeedsInput implements graph.Op.
func (Flatten) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (Flatten) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (Flatten) FLOPs([]tensor.Shape, tensor.Shape) int64 { return 0 }

// WorkspaceBytes implements graph.Op.
func (Flatten) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// Linear is a fully-connected layer: out = x·Wᵀ + b with x of shape
// [N, D] and W of shape [K, D] (PyTorch convention). Graph inputs:
// x, weight, bias.
type Linear struct{}

// Kind implements graph.Op.
func (Linear) Kind() string { return "linear" }

// OutShape implements graph.Op.
func (Linear) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("linear: want x, weight, bias")
	}
	x, w, b := in[0], in[1], in[2]
	if len(x) != 2 || len(w) != 2 || len(b) != 1 {
		return nil, fmt.Errorf("linear: ranks x=%v w=%v b=%v", x, w, b)
	}
	if x[1] != w[1] || b[0] != w[0] {
		return nil, fmt.Errorf("linear: shapes x=%v w=%v b=%v incompatible", x, w, b)
	}
	return tensor.Shape{x[0], w[0]}, nil
}

// ForwardInto implements graph.Op.
func (Linear) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	x, w, b := in[0], in[1], in[2]
	n, k := x.Shape()[0], w.Shape()[0]
	tensor.MatMulBT(dst, x, w)
	for r := 0; r < n; r++ {
		row := dst.Data()[r*k : (r+1)*k]
		for i := range row {
			row[i] += b.Data()[i]
		}
	}
	return nil
}

// Backward implements graph.Op.
func (Linear) Backward(a *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, _ []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	x, w := in[0], in[1]
	n, k := gradOut.Shape()[0], gradOut.Shape()[1]
	d := x.Shape()[1]
	gx := a.GetRaw(n, d)
	tensor.MatMul(gx, gradOut, w) // [N,K]@[K,D]
	gw := a.GetRaw(k, d)
	tensor.MatMulAT(gw, gradOut, x) // gradOutᵀ@x
	gb := a.Get(k)                  // zeroed: row-sum accumulator
	for r := 0; r < n; r++ {
		row := gradOut.Data()[r*k : (r+1)*k]
		for i, v := range row {
			gb.Data()[i] += v
		}
	}
	gin[0], gin[1], gin[2] = gx, gw, gb
}

// NeedsInput implements graph.Op: x and W are read in backward, b not.
func (Linear) NeedsInput(i int) bool { return i <= 1 }

// NeedsOutput implements graph.Op.
func (Linear) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (Linear) FLOPs(in []tensor.Shape, out tensor.Shape) int64 {
	return 2 * int64(in[0][0]) * int64(in[0][1]) * int64(out[1])
}

// WorkspaceBytes implements graph.Op.
func (Linear) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
