package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// opRun drives one op through the graph.Op contract outside a graph,
// the way an executor does: the caller owns dst, and Backward sees nil
// for every operand the op did not declare it needs.
type opRun struct {
	op     graph.Op
	in     []*tensor.Tensor
	shapes []tensor.Shape
	out    *tensor.Tensor
	stash  any
}

// forward allocates dst from a (nil means the heap), poisons it with
// NaN and runs op.ForwardInto.
func forward(t testing.TB, a *tensor.Arena, op graph.Op, in ...*tensor.Tensor) *opRun {
	t.Helper()
	r := &opRun{op: op, in: in, shapes: make([]tensor.Shape, len(in))}
	for i, x := range in {
		r.shapes[i] = x.Shape()
	}
	shape, err := op.OutShape(r.shapes)
	if err != nil {
		t.Fatalf("%s: OutShape: %v", op.Kind(), err)
	}
	r.out = a.GetRaw(shape...)
	r.out.Fill(float32(math.NaN()))
	r.stash = op.ForwardInto(a, r.out, in)
	return r
}

// backward runs op.Backward on gradOut and returns the input gradients.
func (r *opRun) backward(a *tensor.Arena, gradOut *tensor.Tensor) []*tensor.Tensor {
	in := make([]*tensor.Tensor, len(r.in))
	for i := range in {
		if r.op.NeedsInput(i) {
			in[i] = r.in[i]
		}
	}
	var out *tensor.Tensor
	if r.op.NeedsOutput() {
		out = r.out
	}
	gin := make([]*tensor.Tensor, len(in))
	r.op.Backward(a, gradOut, in, r.shapes, out, r.stash, gin)
	return gin
}

func randn(rng *rand.Rand, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	t.RandNormal(rng, 1)
	return t
}

// sameBits reports whether a and b hold identical float32 bit patterns.
func sameBits(a, b *tensor.Tensor) bool {
	if !a.Shape().Equal(b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// contractCase is one op configuration of TestOpContract. mk builds a
// fresh op per run (ops carry state: dropout's Rng, BN's running
// statistics); in builds its operands from a seeded rng.
type contractCase struct {
	name string
	mk   func() graph.Op
	in   func(rng *rand.Rand) []*tensor.Tensor
}

func bnInputs(rng *rand.Rand) []*tensor.Tensor {
	gamma, beta := tensor.New(3), randn(rng, 3)
	gamma.RandUniform(rng, 0.5, 1.5)
	return []*tensor.Tensor{randn(rng, 2, 3, 4, 5), gamma, beta}
}

func contractCases() []contractCase {
	one := func(dims ...int) func(*rand.Rand) []*tensor.Tensor {
		return func(rng *rand.Rand) []*tensor.Tensor { return []*tensor.Tensor{randn(rng, dims...)} }
	}
	bn := func(training, recompute bool) func() graph.Op {
		return func() graph.Op {
			op := nn.NewBatchNorm(nn.NewBNState("bn", 3))
			op.Training, op.Recompute = training, recompute
			return op
		}
	}
	bnrelu := func(training bool) func() graph.Op {
		return func() graph.Op {
			op := nn.NewBNReLU(nn.NewBNState("bn", 3))
			op.Training = training
			return op
		}
	}
	dropout := func(training bool) func() graph.Op {
		return func() graph.Op {
			return &nn.Dropout{P: 0.4, Training: training, Rng: rand.New(rand.NewSource(3))}
		}
	}
	return []contractCase{
		{"conv3x3s1-im2col", func() graph.Op { return nn.NewConv(3, 1, 1) }, func(rng *rand.Rand) []*tensor.Tensor {
			return []*tensor.Tensor{randn(rng, 2, 3, 7, 6), randn(rng, 4, 3, 3, 3), randn(rng, 4)}
		}},
		{"conv5x5s2-im2col", func() graph.Op { return nn.NewConv(5, 2, 2) }, func(rng *rand.Rand) []*tensor.Tensor {
			return []*tensor.Tensor{randn(rng, 2, 3, 9, 8), randn(rng, 4, 3, 5, 5), randn(rng, 4)}
		}},
		{"conv-nobias", func() graph.Op {
			return &nn.Conv{Params: tensor.ConvParams{KH: 1, KW: 1, SH: 1, SW: 1}}
		}, func(rng *rand.Rand) []*tensor.Tensor {
			return []*tensor.Tensor{randn(rng, 2, 3, 4, 4), randn(rng, 5, 3, 1, 1)}
		}},
		{"relu", func() graph.Op { return nn.ReLU{} }, one(2, 3, 4, 5)},
		{"dropout-train", dropout(true), one(2, 3, 4, 5)},
		{"dropout-eval", dropout(false), one(2, 3, 4, 5)},
		{"flatten", func() graph.Op { return nn.Flatten{} }, one(2, 3, 4, 5)},
		{"linear", func() graph.Op { return nn.Linear{} }, func(rng *rand.Rand) []*tensor.Tensor {
			return []*tensor.Tensor{randn(rng, 4, 6), randn(rng, 3, 6), randn(rng, 3)}
		}},
		{"maxpool", func() graph.Op { return nn.NewMaxPool(2, 2) }, one(2, 3, 6, 6)},
		{"avgpool", func() graph.Op { return nn.NewAvgPool(3, 2) }, one(2, 3, 7, 7)},
		{"gap", func() graph.Op { return nn.GlobalAvgPool{} }, one(2, 3, 4, 5)},
		{"add", func() graph.Op { return &nn.Add{N: 3} }, func(rng *rand.Rand) []*tensor.Tensor {
			return []*tensor.Tensor{randn(rng, 2, 3, 4), randn(rng, 2, 3, 4), randn(rng, 2, 3, 4)}
		}},
		{"softmax_xent", func() graph.Op { return nn.SoftmaxCrossEntropy{} }, func(rng *rand.Rand) []*tensor.Tensor {
			return []*tensor.Tensor{randn(rng, 4, 5), tensor.FromSlice([]float32{0, 3, 2, 4}, 4)}
		}},
		{"batchnorm-train", bn(true, false), bnInputs},
		{"batchnorm-eval", bn(false, false), bnInputs},
		{"batchnorm-recompute", bn(true, true), bnInputs},
		{"bnrelu-train", bnrelu(true), bnInputs},
		{"bnrelu-eval", bnrelu(false), bnInputs},
		{"extract_patch", func() graph.Op { return &nn.ExtractPatch{H0: 2, H1: 6, W0: 5, W1: 8} }, one(2, 3, 6, 8)},
		{"concat_patches", func() graph.Op { return &nn.ConcatPatches{NH: 2, NW: 2} }, func(rng *rand.Rand) []*tensor.Tensor {
			return []*tensor.Tensor{randn(rng, 2, 3, 2, 5), randn(rng, 2, 3, 2, 3), randn(rng, 2, 3, 4, 5), randn(rng, 2, 3, 4, 3)}
		}},
	}
}

// TestOpContract pins the one kernel contract every op implements:
// ForwardInto overwrites every element of a NaN-poisoned dst; forward
// and backward are bit-identical between the heap (nil arena) and a
// warmed arena handing out dirty buffers; and every buffer an op draws
// goes back — after forward + backward + releasing the results, and
// after a forward-only pass that hands the stash straight back, the
// arena's in-use bytes are zero.
func TestOpContract(t *testing.T) {
	for _, c := range contractCases() {
		t.Run(c.name, func(t *testing.T) {
			// One full pass on arena a (nil: the heap). Results are
			// cloned, then poisoned and released, so a later pass on
			// the same arena is served dirty buffers.
			pass := func(a *tensor.Arena) (out *tensor.Tensor, gin []*tensor.Tensor) {
				rng := rand.New(rand.NewSource(17))
				r := forward(t, a, c.mk(), c.in(rng)...)
				out = r.out.Clone()
				gradOut := a.GetRaw(r.out.Shape()...)
				gradOut.RandNormal(rng, 1)
				nan := float32(math.NaN())
				for _, g := range r.backward(a, gradOut) {
					if g == nil {
						gin = append(gin, nil)
						continue
					}
					gin = append(gin, g.Clone())
					if g != gradOut {
						g.Fill(nan)
						a.Put(g)
					}
				}
				gradOut.Fill(nan)
				a.Put(gradOut)
				r.out.Fill(nan)
				a.Put(r.out)
				return out, gin
			}
			wantOut, wantGin := pass(nil)
			for i, v := range wantOut.Data() {
				if v != v {
					t.Fatalf("ForwardInto left dst[%d] unwritten", i)
				}
			}

			a := tensor.NewArena()
			pass(a) // warm
			if b := a.Stats().InUseBytes; b != 0 {
				t.Fatalf("forward+backward left %d arena bytes in use", b)
			}
			gotOut, gotGin := pass(a)
			if b := a.Stats().InUseBytes; b != 0 {
				t.Fatalf("warmed forward+backward left %d arena bytes in use", b)
			}
			if !sameBits(gotOut, wantOut) {
				t.Fatal("forward differs between nil and warmed arena")
			}
			for i := range wantGin {
				if (gotGin[i] == nil) != (wantGin[i] == nil) {
					t.Fatalf("grad %d nil-ness differs between nil and warmed arena", i)
				}
				if wantGin[i] != nil && !sameBits(gotGin[i], wantGin[i]) {
					t.Fatalf("grad %d differs between nil and warmed arena", i)
				}
			}

			// Forward-only callers (compiled program, shard evaluation)
			// hand a tensor stash straight back.
			r := forward(t, a, c.mk(), c.in(rand.New(rand.NewSource(17)))...)
			if st, ok := r.stash.(*tensor.Tensor); ok {
				a.Put(st)
			} else if r.stash != nil {
				t.Fatalf("stash is a %T, want nil or *tensor.Tensor", r.stash)
			}
			a.Put(r.out)
			if b := a.Stats().InUseBytes; b != 0 {
				t.Fatalf("forward-only pass left %d arena bytes in use", b)
			}
		})
	}
}
