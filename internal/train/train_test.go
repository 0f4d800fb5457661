package train_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/data"
	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/snapshot"
	"splitcnn/internal/tensor"
	"splitcnn/internal/train"
)

func tinyDataset(t *testing.T) *data.Dataset {
	t.Helper()
	cfg := data.CIFARLike(512, 128)
	if raceEnabled {
		cfg = data.CIFARLike(128, 64)
	}
	cfg.Noise = 0.3
	cfg.MaxShift = 2
	ds, err := data.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func baseCfg() train.Config {
	return train.Config{
		Arch:          "vgg19",
		Model:         models.Config{WidthDiv: 16, BatchNorm: true},
		BatchSize:     32,
		Epochs:        3,
		LR:            0.05,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		LRDecayEpochs: []int{2},
		Seed:          5,
	}
}

func TestSGDStep(t *testing.T) {
	store := graph.NewParamStore()
	p := store.Get("w", tensor.Shape{2})
	p.Value.Fill(1)
	p.Grad.Fill(0.5)
	q := store.Get("b", tensor.Shape{1})
	q.NoDecay = true
	q.Value.Fill(1)
	q.Grad.Fill(0.5)
	f := store.Get("frozen", tensor.Shape{1})
	f.Frozen = true
	f.Value.Fill(1)
	f.Grad.Fill(9)

	opt := &train.SGD{LR: 0.1, Momentum: 0, WeightDecay: 0.2}
	opt.Step(store)
	// w: g = 0.5 + 0.2*1 = 0.7; w = 1 - 0.07 = 0.93
	if got := p.Value.At(0); got < 0.9299 || got > 0.9301 {
		t.Fatalf("decayed param %v, want 0.93", got)
	}
	// b: no decay: 1 - 0.05 = 0.95
	if got := q.Value.At(0); got < 0.9499 || got > 0.9501 {
		t.Fatalf("no-decay param %v, want 0.95", got)
	}
	if f.Value.At(0) != 1 {
		t.Fatal("frozen param updated")
	}
	// Momentum accumulates across steps.
	opt2 := &train.SGD{LR: 1, Momentum: 0.5}
	s2 := graph.NewParamStore()
	m := s2.Get("m", tensor.Shape{1})
	m.Grad.Fill(1)
	opt2.Step(s2) // v=1, w=-1
	opt2.Step(s2) // v=1.5, w=-2.5
	if got := m.Value.At(0); got != -2.5 {
		t.Fatalf("momentum update %v, want -2.5", got)
	}
}

func TestTrainBaselineLearns(t *testing.T) {
	ds := tinyDataset(t)
	cfg := baseCfg()
	cfg.Epochs = 6
	cfg.LRDecayEpochs = []int{4}
	if raceEnabled {
		cfg.Epochs, cfg.LRDecayEpochs = 2, nil
	}
	res, err := train.Run(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TestErr) != cfg.Epochs || len(res.TrainLoss) != cfg.Epochs {
		t.Fatalf("curves %d/%d epochs", len(res.TestErr), len(res.TrainLoss))
	}
	if res.TrainLoss[cfg.Epochs-1] >= res.TrainLoss[0] {
		t.Fatalf("training loss did not drop: %v", res.TrainLoss)
	}
	// The accuracy bar needs the full six epochs; the shrunken race run
	// only checks that training makes progress without data races.
	if !raceEnabled && res.FinalTestErr > 0.6 {
		t.Fatalf("final test error %.2f: no better than chance", res.FinalTestErr)
	}
}

func TestTrainSplitModel(t *testing.T) {
	ds := tinyDataset(t)
	cfg := baseCfg()
	cfg.Split = core.Config{Depth: 0.5, NH: 2, NW: 2}
	if raceEnabled {
		cfg.Epochs, cfg.LRDecayEpochs = 2, nil
	}
	res, err := train.Run(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitConvs != 8 || res.TotalConvs != 16 {
		t.Fatalf("split %d/%d convs, want 8/16", res.SplitConvs, res.TotalConvs)
	}
	if res.TrainLoss[cfg.Epochs-1] >= res.TrainLoss[0] {
		t.Fatalf("split model did not learn: %v", res.TrainLoss)
	}
}

func TestTrainStochasticEvalsUnsplit(t *testing.T) {
	ds := tinyDataset(t)
	cfg := baseCfg()
	cfg.Epochs = 2
	cfg.Split = core.Config{Depth: 0.5, NH: 2, NW: 2, Stochastic: true, Omega: 0.2}
	cfg.EvalUnsplit = true
	res, err := train.Run(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[1] >= res.TrainLoss[0]*1.5 {
		t.Fatalf("stochastic training diverged: %v", res.TrainLoss)
	}
	if res.FinalTestErr < 0 || res.FinalTestErr > 1 {
		t.Fatalf("test error %v out of range", res.FinalTestErr)
	}
}

func TestTrainValidation(t *testing.T) {
	ds := tinyDataset(t)
	cfg := baseCfg()
	cfg.BatchSize = 0
	if _, err := train.Run(cfg, ds); err == nil {
		t.Fatal("zero batch accepted")
	}
	cfg = baseCfg()
	cfg.Arch = "nonsense"
	if _, err := train.Run(cfg, ds); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	cfg = baseCfg()
	cfg.BatchSize = 4096 // bigger than the dataset
	if _, err := train.Run(cfg, ds); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestTrainDeterminism: identical configs must produce identical curves.
func TestTrainDeterminism(t *testing.T) {
	ds := tinyDataset(t)
	cfg := baseCfg()
	cfg.Epochs = 1
	r1, err := train.Run(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := train.Run(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TrainLoss[0] != r2.TrainLoss[0] || r1.TestErr[0] != r2.TestErr[0] {
		t.Fatalf("non-deterministic training: %v/%v vs %v/%v",
			r1.TrainLoss[0], r1.TestErr[0], r2.TrainLoss[0], r2.TestErr[0])
	}
}

// TestEvaluateMatchesExecutor pins Evaluate — which replays the eval
// graph's compiled program — to the reference executor: after a training
// epoch, the error Run reported, the error Evaluate computes from the
// saved weights, and the error a graph.Executor computes over the same
// graph, weights and test split must all be equal — on the plain
// baseline and through a split evaluation graph (patch extract/concat
// steps in the compiled program).
func TestEvaluateMatchesExecutor(t *testing.T) {
	ds := tinyDataset(t)
	for _, split := range []bool{false, true} {
		cfg := baseCfg()
		cfg.Epochs = 1
		cfg.SavePath = filepath.Join(t.TempDir(), "w.snap")
		if split {
			cfg.Split = core.Config{Depth: 0.5, NH: 2, NW: 2}
		}
		res, err := train.Run(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}

		batch := min(cfg.BatchSize, ds.Cfg.TestN)
		mcfg := cfg.Model
		mcfg.BatchSize, mcfg.Classes, mcfg.Eval = batch, ds.Cfg.Classes, true
		mcfg.InputC, mcfg.InputH, mcfg.InputW = ds.Cfg.C, ds.Cfg.H, ds.Cfg.W
		m, err := models.Build(cfg.Arch, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		g := m.Graph
		if split {
			sr, err := core.Split(g, cfg.Split)
			if err != nil {
				t.Fatal(err)
			}
			g = sr.Graph
		}
		store := graph.NewParamStore()
		store.InitFromGraph(g, rand.New(rand.NewSource(1)), nn.KaimingInit)
		if err := snapshot.LoadFile(cfg.SavePath, store, m.BNStates); err != nil {
			t.Fatal(err)
		}
		got, err := train.Evaluate(g, m, store, ds)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: the interpreted executor over the same graph
		// (Evaluate left the logits among its outputs).
		ex, err := graph.NewExecutor(g, store)
		if err != nil {
			t.Fatal(err)
		}
		logits := g.Outputs[len(g.Outputs)-1]
		x := tensor.New(batch, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W)
		labels := tensor.New(batch)
		idx := make([]int, batch)
		wrong, total := 0, 0
		for off := 0; off+batch <= ds.Cfg.TestN; off += batch {
			for i := range idx {
				idx[i] = off + i
			}
			ds.BatchInto(x, labels, false, idx)
			if _, err := ex.Forward(graph.Feeds{"image": x, "labels": labels}); err != nil {
				t.Fatal(err)
			}
			for i, p := range tensor.ArgmaxRow(ex.Value(logits)) {
				if p != int(labels.Data()[i]) {
					wrong++
				}
				total++
			}
		}
		want := float64(wrong) / float64(total)
		if got != want || got != res.FinalTestErr {
			t.Fatalf("split=%v: Evaluate %v, executor %v, Run reported %v", split, got, want, res.FinalTestErr)
		}
	}
}

// TestEvaluateScoresTail: a test split that is not a multiple of the
// batch is scored whole — 100 samples at batch 32 count all 100, the
// last 4 through a prefix forward — and the error equals a one-sample-
// at-a-time executor count over the same weights.
func TestEvaluateScoresTail(t *testing.T) {
	const testN, batch = 100, 32
	ds, err := data.Synthetic(data.CIFARLike(16, testN))
	if err != nil {
		t.Fatal(err)
	}
	build := func(n int) *models.Model {
		m, err := models.Build("vgg19", models.Config{
			BatchSize: n, Classes: ds.Cfg.Classes, InputC: ds.Cfg.C, InputH: ds.Cfg.H, InputW: ds.Cfg.W,
			WidthDiv: 16, BatchNorm: true, Eval: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := build(batch)
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rand.New(rand.NewSource(9)), nn.KaimingInit)
	got, err := train.Evaluate(m.Graph, m, store, ds)
	if err != nil {
		t.Fatal(err)
	}

	one := build(1)
	one.Graph.SetOutput(one.Logits)
	ex, err := graph.NewExecutor(one.Graph, store)
	if err != nil {
		t.Fatal(err)
	}
	x, labels := tensor.New(1, ds.Cfg.C, ds.Cfg.H, ds.Cfg.W), tensor.New(1)
	wrong := 0
	for j := 0; j < testN; j++ {
		ds.BatchInto(x, labels, false, []int{j})
		outs, err := ex.Forward(graph.Feeds{"image": x, "labels": labels})
		if err != nil {
			t.Fatal(err)
		}
		if tensor.ArgmaxRow(outs[0])[0] != int(labels.Data()[0]) {
			wrong++
		}
	}
	if want := float64(wrong) / testN; got != want {
		t.Fatalf("Evaluate = %v, want %d/%d = %v", got, wrong, testN, want)
	}
}
