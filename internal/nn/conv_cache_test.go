package nn_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// TestConvForwardConcurrentSharedCache runs forwards of one conv op and
// of a WithPad copy, which shares its packed-weight cache, from two
// goroutines at once, each alternating between two weight tensors, so
// the calls hit the cache, repack it, and pack into scratch while the
// other holds it. Every output must equal Conv2DInto's (no cache) bit
// for bit.
func TestConvForwardConcurrentSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	randT := func(dims ...int) *tensor.Tensor {
		x := tensor.New(dims...)
		for i := range x.Data() {
			x.Data()[i] = rng.Float32()*2 - 1
		}
		return x
	}
	op := nn.NewConv(3, 1, 1)
	ops := []*nn.Conv{op, op.WithPad(op.Params.Pad).(*nn.Conv)}
	x, b := randT(2, 4, 10, 10), randT(8)
	ws := []*tensor.Tensor{randT(8, 4, 3, 3), randT(8, 4, 3, 3)}
	var refs [2]*tensor.Tensor
	for i, w := range ws {
		refs[i] = tensor.New(2, 8, 10, 10)
		tensor.Conv2DInto(nil, refs[i], x, w, b, op.Params)
	}
	iters := 300
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	for g := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, dst := tensor.NewArena(), tensor.New(2, 8, 10, 10)
			for i := 0; i < iters; i++ {
				k := (g + i/3) % 2
				ops[g].ForwardInto(a, dst, []*tensor.Tensor{x, ws[k], b})
				for j, v := range dst.Data() {
					if math.Float32bits(v) != math.Float32bits(refs[k].Data()[j]) {
						t.Errorf("goroutine %d, call %d: output %d = %v, want %v", g, i, j, v, refs[k].Data()[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
