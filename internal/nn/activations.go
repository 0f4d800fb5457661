package nn

import (
	"fmt"
	"math/rand"

	"splitcnn/internal/tensor"
)

// ReLU is the rectified-linear activation. Its backward pass reads only
// its *output*, never its input — the property that makes the in-place
// ReLU storage optimization of §4.2 legal (input and output tensors may
// share one TSO).
type ReLU struct{}

// Kind implements graph.Op.
func (ReLU) Kind() string { return "relu" }

// PatchwiseSafe reports that ReLU commutes with spatial splitting.
func (ReLU) PatchwiseSafe() bool { return true }

// InPlaceEligible marks the op as computable in place (§4.2).
func (ReLU) InPlaceEligible() bool { return true }

// OutShape implements graph.Op.
func (ReLU) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("relu: want one input")
	}
	return in[0].Clone(), nil
}

// ForwardInto implements graph.Op.
func (ReLU) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	tensor.ReLU(dst, in[0])
	return nil
}

// CanRunInplace implements graph.InplaceOp: always legal.
func (ReLU) CanRunInplace() bool { return true }

// ForwardInplace implements graph.InplaceOp (tensor.ReLU documents that
// dst may alias x).
func (ReLU) ForwardInplace(x *tensor.Tensor, _ []*tensor.Tensor) {
	tensor.ReLU(x, x)
}

// Backward implements graph.Op.
func (ReLU) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, _ []tensor.Shape, out *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	gi := a.GetRaw(gradOut.Shape()...)
	tensor.ReLUBackward(gi, gradOut, out)
	gin[0] = gi
}

// NeedsInput implements graph.Op.
func (ReLU) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (ReLU) NeedsOutput() bool { return true }

// FLOPs implements graph.Op.
func (ReLU) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 { return int64(in[0].Elems()) }

// WorkspaceBytes implements graph.Op.
func (ReLU) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// Dropout zeroes each element with probability P during training and
// scales survivors by 1/(1−P) (inverted dropout). A nil Rng or Training
// == false makes it the identity.
type Dropout struct {
	P        float64
	Training bool
	Rng      *rand.Rand
}

// Kind implements graph.Op.
func (d *Dropout) Kind() string { return "dropout" }

// SetTraining implements graph.ModalOp: inference mode makes dropout
// the identity.
func (d *Dropout) SetTraining(training bool) { d.Training = training }

// PatchwiseSafe reports that dropout commutes with spatial splitting.
func (d *Dropout) PatchwiseSafe() bool { return true }

// OutShape implements graph.Op.
func (d *Dropout) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 {
		return nil, fmt.Errorf("dropout: want one input")
	}
	return in[0].Clone(), nil
}

// identity reports whether the op forwards its input unchanged.
func (d *Dropout) identity() bool { return !d.Training || d.Rng == nil || d.P <= 0 }

// IsNoop implements graph.NoopOp: inference-mode dropout is elided by
// the compiler.
func (d *Dropout) IsNoop() bool { return d.identity() }

// ForwardInto implements graph.Op. In training mode the stash is a
// tensor holding the per-element scale (0 for dropped, 1/(1−P) for
// kept), which turns the backward pass into one elementwise multiply.
func (d *Dropout) ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	x := in[0]
	if d.identity() {
		dst.CopyFrom(x)
		return nil
	}
	mask := a.GetRaw(x.Shape()...)
	scale := float32(1 / (1 - d.P))
	od, md := dst.Data(), mask.Data()
	for i, v := range x.Data() {
		if d.Rng.Float64() >= d.P {
			md[i] = scale
			od[i] = v * scale
		} else {
			md[i] = 0
			od[i] = 0
		}
	}
	return mask
}

// Backward implements graph.Op; a nil stash means the forward pass was
// the identity.
func (d *Dropout) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, _ []tensor.Shape, _ *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	gi := a.GetRaw(gradOut.Shape()...)
	gin[0] = gi
	if stash == nil {
		gi.CopyFrom(gradOut)
		return
	}
	mask := stash.(*tensor.Tensor)
	tensor.Mul(gi, gradOut, mask)
	a.Put(mask)
}

// NeedsInput implements graph.Op.
func (d *Dropout) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (d *Dropout) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (d *Dropout) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 { return int64(in[0].Elems()) }

// WorkspaceBytes implements graph.Op.
func (d *Dropout) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
