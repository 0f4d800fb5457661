// Package train runs real CPU training of (split or unsplit) models for
// the accuracy experiments of §5: SGD with momentum and weight decay, a
// step learning-rate schedule, per-minibatch stochastic re-splitting
// (§3.3), and test-error evaluation — on the unsplit network for
// Stochastic Split-CNN, matching the paper's deployment story.
package train

import (
	"fmt"
	"math/rand"
	"time"

	"splitcnn/internal/core"
	"splitcnn/internal/costmodel"
	"splitcnn/internal/data"
	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/sim"
	"splitcnn/internal/snapshot"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// SGD is stochastic gradient descent with momentum and (decoupled from
// BN/bias parameters) L2 weight decay.
type SGD struct {
	LR, Momentum, WeightDecay float64
}

// Step applies one update to every parameter in the store.
func (s *SGD) Step(store *graph.ParamStore) {
	lr := float32(s.LR)
	mu := float32(s.Momentum)
	wd := float32(s.WeightDecay)
	for _, p := range store.All() {
		if p.Frozen {
			continue
		}
		g, v, w := p.Grad.Data(), p.Velocity.Data(), p.Value.Data()
		decay := wd
		if p.NoDecay {
			decay = 0
		}
		for i := range w {
			gi := g[i] + decay*w[i]
			v[i] = mu*v[i] + gi
			w[i] -= lr * v[i]
		}
	}
}

// Config describes one training run.
type Config struct {
	// Arch selects the model ("vgg19", "resnet18", ...).
	Arch string
	// Model carries width divisor, BN options etc. Input geometry and
	// class count are taken from the dataset.
	Model models.Config
	// BatchSize is the minibatch size; Epochs the training duration.
	BatchSize, Epochs int
	// LR, Momentum, WeightDecay follow the paper's recipes.
	LR, Momentum, WeightDecay float64
	// LRDecayEpochs lists epochs at which the rate drops by 10x.
	LRDecayEpochs []int
	// Split configures the Split-CNN transformation; a zero Depth or a
	// 1x1 grid trains the unmodified baseline. Stochastic splitting
	// resamples boundaries every minibatch.
	Split core.Config
	// EvalUnsplit evaluates test error on the original unsplit network
	// (the SSCNN deployment mode); otherwise evaluation uses the same
	// (deterministically split) architecture that was trained.
	EvalUnsplit bool
	// RecalibrateBN refreshes batch-normalization running statistics by
	// forward passes through the *unsplit* train-mode graph before each
	// unsplit evaluation. During stochastic split training the running
	// estimates accumulate per-patch statistics, which mismatch the
	// whole-feature-map statistics the unsplit network sees; a short
	// recalibration pass (standard practice when deploying BN models
	// under a different execution scheme) removes that artifact.
	// Defaults on when EvalUnsplit is set.
	RecalibrateBN *bool
	Seed          int64
	// Progress, when non-nil, receives one line per epoch.
	Progress func(epoch int, trainLoss, testErr float64)
	// Recorder, when non-nil, receives one "compute"-stream span per
	// executed op of every training step, timed with the wall clock on
	// one continuous timeline. Op names match the serialized program's
	// ("conv1", "conv1.bwd"), so a measured CPU trace diffs directly
	// against a simulated one.
	Recorder trace.Recorder
	// Metrics, when non-nil, accumulates training instrumentation:
	// exec.ops / exec.output_bytes counters, the exec.op_seconds and
	// train.step_seconds histograms, and per-epoch train.loss /
	// train.test_error gauges.
	Metrics *trace.Metrics
	// LoadPath, when set, restores a weight snapshot (parameters + BN
	// running statistics) before training starts; SavePath writes one
	// after the final epoch — the artifact `splitcnn serve` loads.
	LoadPath, SavePath string
	// StepLog, when non-nil, receives one telemetry record per optimizer
	// step (loss, gradient/parameter L2 norms, learning rate, images/s,
	// step wall time, arena footprint) plus one rollup per epoch — the
	// JSONL stream behind `splitcnn train -steplog`. The caller owns the
	// sink (and its Close).
	StepLog *trace.StepLog
	// Guard arms the anomaly guards and flight recorder; see GuardConfig.
	Guard GuardConfig
	// AfterStep, when non-nil, runs after each optimizer update with the
	// global 1-based step number and the live parameter store — an
	// observability/testing seam (the guard tests use it to inject
	// corrupted parameters mid-run).
	AfterStep func(step int, store *graph.ParamStore)
	// Calibrate, when non-nil and the graph is fixed (non-stochastic),
	// compares the measured per-op wall-clock collected by the executor
	// hook against this device's cost model after the run, publishing
	// calib.op_drift_ratio.* gauges into Metrics and Result.Drift — the
	// plan-vs-actual signal that shows when the planner's cost model has
	// drifted from the real engine. Requires Metrics.
	Calibrate *costmodel.DeviceSpec
}

// Result reports a completed run.
type Result struct {
	// TestErr is the per-epoch test error (fraction in [0, 1]).
	TestErr []float64
	// TrainLoss is the per-epoch mean training loss.
	TrainLoss []float64
	// FinalTestErr is TestErr's last entry.
	FinalTestErr float64
	// SplitConvs/TotalConvs report the realized splitting depth.
	SplitConvs, TotalConvs int
	// Drift is the plan-vs-actual calibration report (nil unless
	// Config.Calibrate ran).
	Drift *sim.DriftReport
}

// Run trains per cfg on ds and returns learning curves.
func Run(cfg Config, ds *data.Dataset) (*Result, error) {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: batch %d / epochs %d invalid", cfg.BatchSize, cfg.Epochs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	mcfg := cfg.Model
	mcfg.BatchSize = cfg.BatchSize
	mcfg.Classes = ds.Cfg.Classes
	mcfg.InputC, mcfg.InputH, mcfg.InputW = ds.Cfg.C, ds.Cfg.H, ds.Cfg.W
	base, err := models.Build(cfg.Arch, mcfg)
	if err != nil {
		return nil, err
	}
	store := graph.NewParamStore()
	store.InitFromGraph(base.Graph, rng, nn.KaimingInit)
	if cfg.LoadPath != "" {
		if err := snapshot.LoadFile(cfg.LoadPath, store, base.BNStates); err != nil {
			return nil, fmt.Errorf("train: load snapshot: %w", err)
		}
	}

	split := cfg.Split
	if split.NH == 0 {
		split.NH = 1
	}
	if split.NW == 0 {
		split.NW = 1
	}
	splitting := split.Depth > 0 && split.NH*split.NW > 1
	if split.Stochastic && split.Rng == nil {
		split.Rng = rng
	}

	res := &Result{TotalConvs: base.ConvCount()}

	// For deterministic splits the graph is fixed; stochastic splits
	// rebuild per minibatch.
	var trainGraph *graph.Graph
	buildTrain := func() (*graph.Graph, error) {
		if !splitting {
			return base.Graph, nil
		}
		sr, err := core.Split(base.Graph, split)
		if err != nil {
			return nil, err
		}
		res.SplitConvs = sr.SplitConvs
		// New per-patch conv instances may exist, but parameters are
		// shared by name; nothing new to initialize.
		store.InitFromGraph(sr.Graph, rng, nn.KaimingInit)
		return sr.Graph, nil
	}
	if !split.Stochastic {
		if trainGraph, err = buildTrain(); err != nil {
			return nil, err
		}
	}

	// Evaluation graph: eval-mode BN; unsplit for SSCNN, split for SCNN.
	evalBatch := min(cfg.BatchSize, ds.Cfg.TestN)
	ecfg := mcfg
	ecfg.BatchSize = evalBatch
	ecfg.Eval = true
	ecfg.BNStates = base.BNStates
	evalModel, err := models.Build(cfg.Arch, ecfg)
	if err != nil {
		return nil, err
	}
	evalGraph := evalModel.Graph
	if splitting && !cfg.EvalUnsplit && !split.Stochastic {
		esr, err := core.Split(evalModel.Graph, split)
		if err != nil {
			return nil, err
		}
		evalGraph = esr.Graph
	}
	store.InitFromGraph(evalGraph, rng, nn.KaimingInit)

	// Observability: one shared hook base keeps the per-step executors'
	// spans on a single continuous timeline. The same hook feeds the
	// trace recorder, the exec.* metrics, the flight recorder's op-span
	// ring, the guards' sampled output scan, and the plan-vs-actual
	// calibration accumulator; globalStep is read by the hook closure so
	// flight spans attribute to the step they ran in.
	var gs *guardState
	if cfg.Guard.Enabled {
		gs = newGuardState(cfg.Guard, cfg.Metrics)
	}
	var calib map[string]sim.OpSample
	if cfg.Calibrate != nil && !split.Stochastic {
		calib = make(map[string]sim.OpSample)
	}
	globalStep := 0
	var hook graph.OpHook
	var hookBase time.Time
	if cfg.Recorder != nil || cfg.Metrics != nil || gs != nil || calib != nil {
		hookBase = time.Now()
		hook = func(ev graph.OpEvent) {
			name := ev.Name
			if ev.Backward {
				name += ".bwd"
			}
			if cfg.Recorder != nil {
				cfg.Recorder.Span("compute", name, ev.Start, ev.Start+ev.Dur)
			}
			if cfg.Metrics != nil {
				cfg.Metrics.Counter("exec.ops").Add(1)
				cfg.Metrics.Counter("exec.output_bytes").Add(ev.OutputBytes)
				cfg.Metrics.Histogram("exec.op_seconds", trace.LatencyBuckets).Observe(ev.Dur)
			}
			if gs != nil {
				gs.flight.RecordSpan(trace.OpSpan{Name: name, Step: globalStep + 1, Start: ev.Start, Dur: ev.Dur})
				gs.scan(name, ev)
			}
			if calib != nil {
				s := calib[name]
				s.Seconds += ev.Dur
				s.Count++
				calib[name] = s
			}
		}
	}

	opt := &SGD{LR: cfg.LR, Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay}
	steps := ds.Cfg.TrainN / cfg.BatchSize
	if steps == 0 {
		return nil, fmt.Errorf("train: dataset smaller than one batch")
	}

	recalibrate := cfg.EvalUnsplit && splitting
	if cfg.RecalibrateBN != nil {
		recalibrate = *cfg.RecalibrateBN && splitting
	}

	// One arena and one set of batch buffers serve the whole run. With a
	// fixed graph the executor is built once too, so the steady-state
	// step allocates nothing; stochastic splitting rebuilds graph and
	// executor per minibatch but keeps recycling through the same arena.
	arena := tensor.NewArena()
	batchX := tensor.New(cfg.BatchSize, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W)
	batchY := tensor.New(cfg.BatchSize)
	feeds := graph.Feeds{"image": batchX, "labels": batchY}
	var trainEx *graph.Executor
	if !split.Stochastic {
		if trainEx, err = graph.NewExecutor(trainGraph, store); err != nil {
			return nil, err
		}
		trainEx.UseArena(arena)
		trainEx.Hook, trainEx.HookBase = hook, hookBase
	}

	// recalibrateBN refreshes the shared running statistics with
	// whole-feature-map batches through the unsplit train-mode graph.
	recalibrateBN := func(perm []int) error {
		ex, err := graph.NewExecutor(base.Graph, store)
		if err != nil {
			return err
		}
		ex.UseArena(arena)
		passes := min(8, steps)
		for s := 0; s < passes; s++ {
			ds.BatchInto(batchX, batchY, true, perm[s*cfg.BatchSize:(s+1)*cfg.BatchSize])
			if _, err := ex.Forward(feeds); err != nil {
				return err
			}
		}
		ex.Recycle()
		return nil
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		opt.LR = cfg.LR
		for _, de := range cfg.LRDecayEpochs {
			if epoch >= de {
				opt.LR /= 10
			}
		}
		perm := ds.Shuffled(rng)
		var lossSum float64
		epochStart := time.Now()
		for s := 0; s < steps; s++ {
			ex := trainEx
			if split.Stochastic {
				g, err := buildTrain()
				if err != nil {
					return nil, err
				}
				if ex, err = graph.NewExecutor(g, store); err != nil {
					return nil, err
				}
				ex.UseArena(arena)
				ex.Hook, ex.HookBase = hook, hookBase
			}
			stepStart := time.Now()
			ds.BatchInto(batchX, batchY, true, perm[s*cfg.BatchSize:(s+1)*cfg.BatchSize])
			store.ZeroGrads()
			outs, err := ex.Forward(feeds)
			if err != nil {
				return nil, err
			}
			loss := float64(outs[0].Data()[0])
			lossSum += loss
			if err := ex.Backward(); err != nil {
				return nil, err
			}
			opt.Step(store)
			if split.Stochastic {
				// The executor dies with this step; hand its buffers back
				// so the next minibatch's graph reuses them.
				ex.Recycle()
			}
			globalStep++
			stepSecs := time.Since(stepStart).Seconds()
			// Step telemetry: the norms pass runs only when someone
			// consumes it (steplog, guards, or metrics).
			var gradNorm, paramNorm float64
			if cfg.StepLog != nil || gs != nil || cfg.Metrics != nil {
				gradNorm, paramNorm = Norms(store)
			}
			if cfg.StepLog != nil || gs != nil {
				rec := trace.StepRecord{
					Step: globalStep, Epoch: epoch, Loss: loss,
					GradNorm: gradNorm, ParamNorm: paramNorm, LR: opt.LR,
					ImagesPerSec: rate(cfg.BatchSize, stepSecs), StepSeconds: stepSecs,
					ArenaInUseBytes: arena.Stats().InUseBytes,
				}
				if cfg.StepLog != nil {
					if err := cfg.StepLog.Step(rec); err != nil {
						return nil, err
					}
				}
				if gs != nil {
					gs.flight.RecordStep(rec)
				}
			}
			if cfg.Metrics != nil {
				cfg.Metrics.Counter("train.steps").Add(1)
				cfg.Metrics.Counter("train.samples").Add(int64(cfg.BatchSize))
				cfg.Metrics.Histogram("train.step_seconds", trace.LatencyBuckets).Observe(stepSecs)
				cfg.Metrics.Gauge("train.grad_norm").Set(gradNorm)
				cfg.Metrics.Gauge("train.param_norm").Set(paramNorm)
				cfg.Metrics.Gauge("train.lr").Set(opt.LR)
				cfg.Metrics.Gauge("train.images_per_sec").Set(rate(cfg.BatchSize, stepSecs))
				arena.Stats().Record("arena", cfg.Metrics)
			}
			if gs != nil {
				if err := gs.check(globalStep, loss, gradNorm, store); err != nil {
					return nil, err
				}
			}
			if cfg.AfterStep != nil {
				cfg.AfterStep(globalStep, store)
			}
		}
		epochSecs := time.Since(epochStart).Seconds()
		if recalibrate && cfg.EvalUnsplit {
			if err := recalibrateBN(perm); err != nil {
				return nil, err
			}
		}
		testErr, err := Evaluate(evalGraph, evalModel, store, ds)
		if err != nil {
			return nil, err
		}
		// safeMean keeps a zero-step epoch (unreachable today — Run
		// rejects datasets smaller than one batch up front — but cheap
		// insurance against refactors) from poisoning the train.loss
		// gauge and the steplog with NaN.
		meanLoss := safeMean(lossSum, steps)
		res.TrainLoss = append(res.TrainLoss, meanLoss)
		res.TestErr = append(res.TestErr, testErr)
		if cfg.Metrics != nil {
			cfg.Metrics.Gauge("train.loss").Set(meanLoss)
			cfg.Metrics.Gauge("train.test_error").Set(testErr)
			cfg.Metrics.Counter("train.epochs").Add(1)
		}
		if cfg.StepLog != nil {
			if err := cfg.StepLog.Epoch(trace.EpochRecord{
				Epoch: epoch, Steps: steps, MeanLoss: meanLoss, TestError: testErr,
				LR: opt.LR, EpochSeconds: epochSecs,
				ImagesPerSec: rate(steps*cfg.BatchSize, epochSecs),
			}); err != nil {
				return nil, err
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, meanLoss, testErr)
		}
	}
	res.FinalTestErr = res.TestErr[len(res.TestErr)-1]
	if len(calib) > 0 {
		rep, err := sim.DriftFromMeasured(trainGraph, *cfg.Calibrate, calib)
		if err != nil {
			return nil, fmt.Errorf("train: calibration: %w", err)
		}
		res.Drift = rep
		if cfg.Metrics != nil {
			rep.RecordMetrics(cfg.Metrics)
		}
	}
	if cfg.SavePath != "" {
		if err := snapshot.SaveFile(cfg.SavePath, store, base.BNStates); err != nil {
			return nil, fmt.Errorf("train: save snapshot: %w", err)
		}
	}
	return res, nil
}

// Evaluate computes classification error of the model graph (whose
// logits node must be named like evalModel.Logits) over the whole test
// split. The graph is lowered once through graph.Compile (inference
// rewrites + fixed-offset memory plan) and every test batch replays the
// program; a short last batch runs as a prefix of the program's batch.
func Evaluate(g *graph.Graph, m *models.Model, store *graph.ParamStore, ds *data.Dataset) (float64, error) {
	batch := m.Input.Shape.N()
	logitsName := m.Logits.Name
	logitsNode := g.FindNode(logitsName)
	if logitsNode == nil {
		// Split graphs may have joined the logits under a ".join" name.
		if logitsNode = g.FindNode(logitsName + ".join"); logitsNode == nil {
			return 0, fmt.Errorf("train: logits node %q not found", logitsName)
		}
	}
	// The compiled program returns exactly the graph outputs; make sure
	// the logits are one of them and remember which.
	logitsIdx := -1
	for i, o := range g.Outputs {
		if o == logitsNode {
			logitsIdx = i
		}
	}
	if logitsIdx < 0 {
		g.SetOutput(append(g.Outputs, logitsNode)...)
		logitsIdx = len(g.Outputs) - 1
	}
	prog, err := graph.Compile(g, store, graph.CompileOptions{})
	if err != nil {
		return 0, err
	}
	x := tensor.New(batch, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W)
	labels := tensor.New(batch)
	feeds := graph.Feeds{"image": x, "labels": labels}
	idx := make([]int, batch)
	wrong, total := 0, 0
	for off := 0; off < ds.Cfg.TestN; off += batch {
		n := min(batch, ds.Cfg.TestN-off)
		for i := range idx[:n] {
			idx[i] = off + i
		}
		ds.BatchInto(x, labels, false, idx[:n])
		if n < batch {
			feeds = graph.Feeds{
				"image":  tensor.Wrap(x.Data()[:x.Elems()/batch*n], n, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W),
				"labels": tensor.Wrap(labels.Data()[:n], n),
			}
		}
		outs, err := prog.Forward(feeds)
		if err != nil {
			return 0, err
		}
		pred := tensor.ArgmaxRow(outs[logitsIdx])
		for i, p := range pred {
			if p != int(labels.Data()[i]) {
				wrong++
			}
			total++
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("train: empty test set")
	}
	return float64(wrong) / float64(total), nil
}
