package nn

import (
	"fmt"

	"splitcnn/internal/tensor"
)

// BNReLU is the fused, memory-efficient In-Place Activated BatchNorm of
// Bulò et al. that §6.3 adopts to raise ResNet's offloadable fraction:
// y = LeakyReLU(γ·x̂ + β). Because the leaky activation is invertible,
// the backward pass reconstructs x̂ from the stashed *output* alone —
// the layer's input feature map never needs to be kept (or offloaded),
// halving the conv→BN→activation block's stash footprint.
type BNReLU struct {
	State *BNState
	Eps   float64
	// Slope is the negative-side slope of the leaky activation; it must
	// be positive so the activation is invertible.
	Slope    float64
	Training bool
	// cache holds the precast inference statistics.
	cache bnEvalCache
}

// NewBNReLU returns a train-mode fused BN+LeakyReLU bound to state.
func NewBNReLU(state *BNState) *BNReLU {
	return &BNReLU{State: state, Eps: 1e-5, Slope: 0.01, Training: true}
}

// Kind implements graph.Op.
func (b *BNReLU) Kind() string { return "bnrelu" }

// SetTraining implements graph.ModalOp: inference mode normalizes with
// the running statistics and never updates them.
func (b *BNReLU) SetTraining(training bool) { b.Training = training }

// PatchwiseSafe reports that the op may be applied per spatial patch.
func (b *BNReLU) PatchwiseSafe() bool { return true }

// InPlaceEligible marks the op as computable in place.
func (b *BNReLU) InPlaceEligible() bool { return true }

// OutShape implements graph.Op.
func (b *BNReLU) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("bnrelu: want x, gamma, beta")
	}
	if len(in[0]) != 4 {
		return nil, fmt.Errorf("bnrelu: want NCHW input, got %v", in[0])
	}
	c := in[0].C()
	if len(in[1]) != 1 || in[1][0] != c || len(in[2]) != 1 || in[2][0] != c {
		return nil, fmt.Errorf("bnrelu: gamma %v / beta %v incompatible with %v", in[1], in[2], in[0])
	}
	return in[0].Clone(), nil
}

// ForwardInto implements graph.Op.
func (b *BNReLU) ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	return bnForward(a, dst, in, b.State, b.Eps, b.Training, &b.cache, float32(b.Slope))
}

// CanRunInplace implements graph.InplaceOp (see BatchNorm.CanRunInplace).
func (b *BNReLU) CanRunInplace() bool { return !b.Training }

// ForwardInplace implements graph.InplaceOp.
func (b *BNReLU) ForwardInplace(x *tensor.Tensor, in []*tensor.Tensor) {
	bnForward(nil, x, in, b.State, b.Eps, b.Training, &b.cache, float32(b.Slope))
}

// Backward implements graph.Op: everything is reconstructed from the
// stashed output (x̂ = (inv-leaky(y) − β)/γ), so in[0] is nil.
func (b *BNReLU) Backward(a *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, _ []tensor.Shape, out *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	gamma, beta := in[1], in[2]
	s := gradOut.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	slope := float32(b.Slope)
	blk, st := bnSaved(a, stash, c, b.State, b.Eps)

	// Reconstruct x̂ and the gradient flowing into the BN affine output.
	xhat, gz := a.GetRaw(s...), a.GetRaw(s...)
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g, bt := gamma.Data()[ch], beta.Data()[ch]
			if g == 0 {
				g = 1e-12
			}
			gsrc := gradOut.Data()[base : base+plane]
			xd := xhat.Data()[base : base+plane]
			gzd := gz.Data()[base : base+plane]
			for i, y := range out.Data()[base : base+plane] {
				z := y
				gv := gsrc[i]
				if y < 0 {
					z = y / slope
					gv *= slope
				}
				xd[i] = (z - bt) / g
				gzd[i] = gv
			}
		}
	}
	bnBackward(a, gz, xhat, gamma, st, b.Eps, b.Training, gin)
	a.Put(xhat)
	a.Put(gz)
	a.Put(blk)
}

// NeedsInput implements graph.Op: only gamma and beta are re-read.
func (b *BNReLU) NeedsInput(i int) bool { return i > 0 }

// NeedsOutput implements graph.Op.
func (b *BNReLU) NeedsOutput() bool { return true }

// FLOPs implements graph.Op.
func (b *BNReLU) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return 12 * int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op.
func (b *BNReLU) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }
