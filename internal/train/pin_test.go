package train_test

import (
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/data"
	"splitcnn/internal/models"
	"splitcnn/internal/tensor"
	"splitcnn/internal/train"
)

// TestStochasticSplitPin pins the final training loss and test error of
// `splitcnn train -arch vgg19 -epochs 2 -train 256 -test 128 -widthdiv 16
// -depth 0.5 -splits 4 -stochastic` (seed 7) bit for bit, at kernel
// parallelism 1 and 2. The bits belong to the kernel that ran, so the
// expected values are keyed by tensor.CPUFeatures().
func TestStochasticSplitPin(t *testing.T) {
	want, ok := map[string]struct{ loss, testErr float64 }{
		"amd64+avx2fma":  {2.3009376525878906, 0.8359375},
		"amd64+portable": {2.2981646358966827, 0.84375},
	}[tensor.CPUFeatures()]
	if !ok {
		t.Skipf("no pin for kernel %q", tensor.CPUFeatures())
	}
	dcfg := data.CIFARLike(256, 128)
	dcfg.Noise = 0.9
	dcfg.MaxShift = 6
	ds, err := data.Synthetic(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		prev := tensor.SetParallelism(par)
		res, err := train.Run(train.Config{
			Arch:          "vgg19",
			Model:         models.Config{WidthDiv: 16, BatchNorm: true},
			BatchSize:     32,
			Epochs:        2,
			LR:            0.05,
			Momentum:      0.9,
			WeightDecay:   1e-4,
			LRDecayEpochs: []int{1},
			Split:         core.Config{Depth: 0.5, NH: 2, NW: 2, Stochastic: true, Omega: 0.2},
			EvalUnsplit:   true,
			Seed:          7,
		}, ds)
		tensor.SetParallelism(prev)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if loss := res.TrainLoss[len(res.TrainLoss)-1]; loss != want.loss || res.FinalTestErr != want.testErr {
			t.Fatalf("parallelism %d on %s: loss %v, test error %v; want %v, %v",
				par, tensor.CPUFeatures(), loss, res.FinalTestErr, want.loss, want.testErr)
		}
	}
}
