package nn

import (
	"fmt"
	"math"

	"splitcnn/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss over
// a batch. Graph inputs: logits [N, K] and labels [N] (class indices
// stored as float32, which keeps the dataflow tensor-only). The output
// is a [1] scalar.
type SoftmaxCrossEntropy struct{}

// Kind implements graph.Op.
func (SoftmaxCrossEntropy) Kind() string { return "softmax_xent" }

// OutShape implements graph.Op.
func (SoftmaxCrossEntropy) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("softmax_xent: want logits and labels")
	}
	if len(in[0]) != 2 || len(in[1]) != 1 || in[0][0] != in[1][0] {
		return nil, fmt.Errorf("softmax_xent: logits %v and labels %v incompatible", in[0], in[1])
	}
	return tensor.Shape{1}, nil
}

// ForwardInto implements graph.Op. The stash is the softmax probability
// matrix, which is all the backward pass reads.
func (SoftmaxCrossEntropy) ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	logits, labels := in[0], in[1]
	n, k := logits.Shape()[0], logits.Shape()[1]
	probs := a.GetRaw(n, k)
	tensor.Softmax(probs, logits)
	var loss float64
	for r := 0; r < n; r++ {
		c := int(labels.Data()[r])
		if c < 0 || c >= k {
			panic(fmt.Sprintf("softmax_xent: label %d out of range [0,%d)", c, k))
		}
		p := float64(probs.At(r, c))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	dst.Data()[0] = float32(loss / float64(n))
	return probs
}

// Backward implements graph.Op: d loss / d logit = (p − onehot) / N.
func (SoftmaxCrossEntropy) Backward(a *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, _ []tensor.Shape, _ *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	probs := stash.(*tensor.Tensor)
	labels := in[1]
	n, k := probs.Shape()[0], probs.Shape()[1]
	g := gradOut.Data()[0]
	gl := a.GetRaw(n, k)
	inv := g / float32(n)
	for r := 0; r < n; r++ {
		c := int(labels.Data()[r])
		row := probs.Data()[r*k : (r+1)*k]
		dst := gl.Data()[r*k : (r+1)*k]
		for i, p := range row {
			dst[i] = p * inv
		}
		dst[c] -= inv
	}
	a.Put(probs)
	gin[0] = gl
}

// NeedsInput implements graph.Op: labels are needed; logits are not
// (the stashed probabilities suffice).
func (SoftmaxCrossEntropy) NeedsInput(i int) bool { return i == 1 }

// NeedsOutput implements graph.Op.
func (SoftmaxCrossEntropy) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (SoftmaxCrossEntropy) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return 5 * int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op: the probability matrix.
func (SoftmaxCrossEntropy) WorkspaceBytes(in []tensor.Shape, _ tensor.Shape) int64 {
	return in[0].Bytes()
}
