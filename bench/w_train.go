package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"splitcnn/internal/core"
	"splitcnn/internal/data"
	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
	"splitcnn/internal/train"
)

// train_sscnn: `splitcnn train -stochastic -depth 0.5` on the synthetic
// CIFAR-like set — mini VGG-19 (width÷16, BN, batch 32) whose first half
// of convs is re-split 2×2 with fresh ω=0.2 boundaries every minibatch,
// evaluated unsplit after each epoch. One op is one optimizer step.

const (
	trainBatch = 32
	trainArch  = "vgg19"
	testN      = 64
)

// The recipe of `splitcnn train`.
const trainLR, trainMomentum, trainWeightDecay = 0.05, 0.9, 1e-4

// trainModelConfig is the mini model at the given batch size on ds's
// geometry (train.Run fills the geometry in itself; the hand-composed
// step and the evaluation model need it spelled out).
func trainModelConfig(ds *data.Dataset, batch int) models.Config {
	return models.Config{
		WidthDiv: 16, BatchNorm: true, BatchSize: batch, Classes: ds.Cfg.Classes,
		InputC: ds.Cfg.C, InputH: ds.Cfg.H, InputW: ds.Cfg.W,
	}
}

func trainSplit() core.Config {
	return core.Config{Depth: 0.5, NH: 2, NW: 2, Stochastic: true, Omega: 0.2}
}

type trainSession struct {
	in inputs
	// ds feeds the timed run, warm the set-up's short run.
	ds, warm *data.Dataset
	// stepMs and epochExtraMs are what the last set-up's warm-up run
	// measured: a steady step, and what an epoch costs besides its steps
	// (BN recalibration + unsplit evaluation). measure sizes its epoch
	// count from them, because train.Run cannot be stopped part-way.
	stepMs, epochExtraMs float64
	// minEpochs keeps a full-length run at 4 epochs x 63 step times = 252
	// samples, 12 of them beyond p95, however slow the box is.
	minEpochs int
}

func openTrain(in inputs) (session, error) {
	// A full-length run trains on 2048 samples (64 steps an epoch); runs
	// too short for two such epochs shrink the set, not the step.
	steps, warmSteps, minEpochs := 64, 8, 4
	if in.seconds < 8 {
		steps, warmSteps, minEpochs = 4, 2, 2
	}
	s := &trainSession{in: in, minEpochs: minEpochs}
	var err error
	if s.ds, err = syntheticSet(in.seed, steps*trainBatch); err != nil {
		return nil, err
	}
	if s.warm, err = syntheticSet(in.seed+1, warmSteps*trainBatch); err != nil {
		return nil, err
	}
	return s, nil
}

func syntheticSet(seed int64, trainN int) (*data.Dataset, error) {
	cfg := data.CIFARLike(trainN, testN)
	cfg.Seed = seed*1000 + streamData
	return data.Synthetic(cfg)
}

func (s *trainSession) config(epochs int, afterStep func(int, *graph.ParamStore)) train.Config {
	return train.Config{
		Arch: trainArch, Model: trainModelConfig(s.ds, trainBatch),
		BatchSize: trainBatch, Epochs: epochs,
		LR: trainLR, Momentum: trainMomentum, WeightDecay: trainWeightDecay,
		Split: trainSplit(), EvalUnsplit: true,
		Seed:      s.in.seed*1000 + streamTrain,
		AfterStep: afterStep,
	}
}

// setup is a one-epoch train.Run on the warm-up set: it pages in the
// kernels and tells measure how long a step and an epoch boundary take.
func (s *trainSession) setup() error {
	start := time.Now()
	last := start
	var steps []float64
	_, err := train.Run(s.config(1, func(int, *graph.ParamStore) {
		now := time.Now()
		steps = append(steps, ms(now.Sub(last)))
		last = now
	}), s.warm)
	if err != nil {
		return err
	}
	s.stepMs = median(steps[1:]) // the first step also builds the model
	s.epochExtraMs = ms(time.Since(last))
	return nil
}

func (s *trainSession) teardown() {}

func (s *trainSession) measure(d time.Duration) (opStats, error) {
	perEpoch := s.ds.Cfg.TrainN / trainBatch
	epochMs := float64(perEpoch)*s.stepMs + s.epochExtraMs
	epochs := max(s.minEpochs, int(math.Round(ms(d)/epochMs)))
	st := opStats{attempted: epochs * perEpoch}

	start := time.Now()
	last := start
	calls := 0
	res, err := train.Run(s.config(epochs, func(step int, _ *graph.ParamStore) {
		now := time.Now()
		// An epoch's first step also carries the previous epoch's
		// evaluation (or, for step 1, model construction): it counts as an
		// op, but its interval is not a step time.
		if (step-1)%perEpoch != 0 {
			st.lat = append(st.lat, ms(now.Sub(last)))
		}
		last = now
		calls++
	}), s.ds)
	st.wall = time.Since(start)
	st.failed = st.attempted - calls
	if err != nil {
		return st, err
	}
	if calls != st.attempted {
		return st, fmt.Errorf("AfterStep ran %d times, want %d", calls, st.attempted)
	}
	first, final := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]
	fmt.Fprintf(os.Stderr, "train_sscnn: %d epochs x %d steps, mean loss per epoch %.4f -> %.4f, final test error %.3f\n",
		epochs, perEpoch, first, final, res.FinalTestErr)
	if math.IsNaN(final) || math.IsInf(final, 0) || final >= first {
		st.failed = st.attempted
		return st, fmt.Errorf("training did not learn: mean loss per epoch %v", res.TrainLoss)
	}
	return st, nil
}

// handStep is one optimizer step composed from the same public calls
// train.Run makes, in the same order, each under a span.
type handStep struct {
	ds     *data.Dataset
	base   *models.Model
	store  *graph.ParamStore
	split  core.Config
	arena  *tensor.Arena
	opt    *train.SGD
	x, y   *tensor.Tensor
	perm   []int
	losses []float64
}

func newHandStep(seed int64, ds *data.Dataset) (*handStep, error) {
	rng := stream(seed, streamTrain)
	base, err := models.Build(trainArch, trainModelConfig(ds, trainBatch))
	if err != nil {
		return nil, err
	}
	store := graph.NewParamStore()
	store.InitFromGraph(base.Graph, rng, nn.KaimingInit)
	split := trainSplit()
	split.Rng = rng
	return &handStep{
		ds: ds, base: base, store: store, split: split,
		arena: tensor.NewArena(),
		opt:   &train.SGD{LR: trainLR, Momentum: trainMomentum, WeightDecay: trainWeightDecay},
		x:     tensor.New(trainBatch, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W),
		y:     tensor.New(trainBatch),
		perm:  ds.Shuffled(rng),
	}, nil
}

func (h *handStep) do(rec *recorder) doFunc {
	perEpoch := len(h.perm) / trainBatch
	return func(_, i int) outcome {
		root := rec.start("train.step", -1, i, 0)
		defer rec.end(root)

		id := rec.start("core.split", root, i, 0)
		sr, err := core.Split(h.base.Graph, h.split)
		rec.end(id)
		if err != nil {
			return opFailed
		}
		id = rec.start("graph.executor_build", root, i, 0)
		ex, err := graph.NewExecutor(sr.Graph, h.store)
		rec.end(id)
		if err != nil {
			return opFailed
		}
		ex.UseArena(h.arena)
		defer ex.Recycle()

		b := i % perEpoch
		h.ds.BatchInto(h.x, h.y, true, h.perm[b*trainBatch:(b+1)*trainBatch])
		h.store.ZeroGrads()
		id = rec.start("graph.forward", root, i, 0)
		outs, err := ex.Forward(graph.Feeds{"image": h.x, "labels": h.y})
		rec.end(id)
		if err != nil {
			return opFailed
		}
		loss := float64(outs[0].Data()[0])
		id = rec.start("graph.backward", root, i, 0)
		err = ex.Backward()
		rec.end(id)
		if err != nil {
			return opFailed
		}
		id = rec.start("train.sgd", root, i, 0)
		h.opt.Step(h.store)
		rec.end(id)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return opFailed
		}
		h.losses = append(h.losses, loss)
		return opOK
	}
}

func (s *trainSession) layers(d time.Duration, rec *recorder) (map[string]float64, opStats, error) {
	v := map[string]float64{}
	h, err := newHandStep(s.in.seed, s.ds)
	if err != nil {
		return nil, opStats{}, err
	}
	closedLoop(limit{ops: 4}, 1, 0, h.do(nil)) // warm the arena before comparing phases
	plain, traced := alternate(d*2/5, rec, func(_, from int, rec *recorder) opStats {
		return closedLoop(limit{ops: 4}, 1, from, h.do(rec))
	})
	st := plain
	st.add(traced)
	var fail error
	if st.failed > 0 {
		fail = fmt.Errorf("%d hand-composed steps failed or lost a finite loss", st.failed)
	}
	v["bench.traced_ops_s"] = traced.throughput()
	v["bench.trace_overhead_pct"] = overheadPct(plain, traced, false)
	dur, self := spanStats(rec.snapshot(), 0)
	v["core.split_mini_ms"] = median(dur["core.split"])
	v["graph.executor_build_ms"] = median(dur["graph.executor_build"])
	v["graph.split_forward_ms"] = median(dur["graph.forward"])
	v["graph.backward_ms"] = median(dur["graph.backward"])
	v["train.sgd_ms"] = median(dur["train.sgd"])
	v["train.step_self_ms"] = median(self["train.step"])
	if n := len(h.losses); n > 0 {
		v["train.final_loss"] = h.losses[n-1]
	}
	arena := h.arena.Stats()
	v["tensor.arena_hit_rate"] = arena.HitRate()
	v["tensor.arena_high_water_bytes"] = float64(arena.HighWaterBytes)

	// Unsplit evaluation, as train.Run does after every epoch.
	ecfg := trainModelConfig(s.ds, trainBatch) // train.Run evaluates at min(batch, test set)
	ecfg.Eval, ecfg.BNStates = true, h.base.BNStates
	evalModel, err := models.Build(trainArch, ecfg)
	if err != nil {
		return v, st, err
	}
	h.store.InitFromGraph(evalModel.Graph, stream(s.in.seed, streamProbe), nn.KaimingInit)
	v["train.eval_ms"] = probe(rec, "train.evaluate", -1, d/20, 3, func() {
		if _, e := train.Evaluate(evalModel.Graph, evalModel, h.store, s.ds); e != nil {
			fail = e
		}
	})

	// graph, nn and tensor on the deterministic 2×2 split of the training
	// graph: the shapes of a typical step, but the same on every run.
	det := trainSplit()
	det.Stochastic = false
	sr, err := core.Split(h.base.Graph, det)
	if err != nil {
		return v, st, err
	}
	v["core.split_nodes"] = float64(len(sr.Graph.Nodes))
	v["core.realized_depth"] = sr.RealizedDepth()
	ex, err := graph.NewExecutor(sr.Graph, h.store)
	if err != nil {
		return v, st, err
	}
	ex.UseArena(tensor.NewArena())
	id := rec.start("graph.interp_forward", -1, -1, 0)
	interp, alloc, _, err := forwardProbe(ex, graph.Feeds{"image": h.x, "labels": h.y}, d/20)
	rec.end(id)
	if err != nil {
		return v, st, err
	}
	v["graph.interp_forward_ms"] = interp
	v["graph.alloc_bytes_per_forward"] = alloc
	id = rec.start("probe.convs", -1, -1, 0)
	convs := probeConvs(convSites(sr.Graph), d*7/20, true, s.in.seed)
	rec.end(id)
	convs.into(v)
	v["nn.nonconv_fwd_ms"] = interp - convs.dispatchMs
	return v, st, fail
}
