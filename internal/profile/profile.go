// Package profile implements the measured counterpart of the cost-model
// profiling stage: §4.3's methodology of timing each layer as "the total
// execution time of 20 repeated executions ... divided by 20", using
// Go's monotonic clock in place of C++'s high_resolution_clock. The
// measured times drive the same HMMS planner via hmms.BuildProgramTimed.
//
// Measuring full-size networks is what the paper does on a P100; on a
// CPU this is practical for the scaled-down models, and a Scale factor
// maps CPU milliseconds to accelerator-class times so the planner's
// capacity balances stay meaningful.
package profile

import (
	"math/rand"
	"time"

	"splitcnn/internal/costmodel"
	"splitcnn/internal/graph"
	"splitcnn/internal/hmms"
	"splitcnn/internal/tensor"
)

// Options configures the measured profiler.
type Options struct {
	// Repeats is the number of timed executions per op (the paper uses
	// 20).
	Repeats int
	// Scale multiplies measured CPU seconds to approximate the target
	// device (e.g. 0.01 for a device ~100x faster than this host);
	// 1 profiles the host itself.
	Scale float64
	// BackwardFactor estimates backward time as a multiple of the
	// measured forward time for parameterized ops (backward kernels are
	// not individually measurable without materializing gradients; 2 is
	// the conventional estimate the cost model also uses).
	BackwardFactor float64
	// Seed feeds the synthetic input generator.
	Seed int64
}

// DefaultOptions mirrors the paper: 20 repeats.
func DefaultOptions() Options {
	return Options{Repeats: 20, Scale: 1, BackwardFactor: 2, Seed: 1}
}

// Timer returns an hmms.Timer that measures each op by running its real
// ForwardInto implementation Repeats times on synthetic inputs.
func Timer(opt Options) hmms.Timer {
	if opt.Repeats <= 0 {
		opt.Repeats = 20
	}
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if opt.BackwardFactor <= 0 {
		opt.BackwardFactor = 2
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	return func(n *graph.Node, in []tensor.Shape) (float64, float64) {
		ins := make([]*tensor.Tensor, len(in))
		for i, s := range in {
			t := tensor.New(s...)
			// Labels and class-index-like rank-1 inputs must stay valid
			// class indices; everything else gets unit Gaussians.
			if len(s) == 1 && n.Op.Kind() == "softmax_xent" && i == 1 {
				t.Zero()
			} else {
				t.RandNormal(rng, 0.5)
			}
			ins[i] = t
		}
		dst := tensor.New(n.Shape...)
		// Warm-up once (allocation paths, caches), then time Repeats
		// executions and divide — §4.3 verbatim.
		n.Op.ForwardInto(nil, dst, ins)
		start := time.Now()
		for r := 0; r < opt.Repeats; r++ {
			n.Op.ForwardInto(nil, dst, ins)
		}
		fwd := time.Since(start).Seconds() / float64(opt.Repeats) * opt.Scale
		factor := 1.0
		switch n.Op.Kind() {
		case "conv", "linear":
			factor = opt.BackwardFactor
		case "batchnorm", "bnrelu":
			factor = 1.5
		}
		return fwd, fwd * factor
	}
}

// BuildProgram builds an hmms.Program with measured op times. The
// device spec still supplies the link bandwidth and capacity the
// planner needs.
func BuildProgram(g *graph.Graph, dev costmodel.DeviceSpec, opt Options) (*hmms.Program, error) {
	return hmms.BuildProgramTimed(g, dev, Timer(opt))
}
