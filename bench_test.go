// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Run them all with
//
//	go test -bench=. -benchtime=1x
//
// Training-based figures (fig4-7, table1) run at "quick" scale by
// default; set SPLITCNN_SCALE=standard or =full for the higher-fidelity
// (slower) versions recorded in EXPERIMENTS.md.
package splitcnn_test

import (
	"io"
	"math/rand"
	"os"
	"testing"

	"splitcnn/internal/autotune"
	"splitcnn/internal/core"
	"splitcnn/internal/costmodel"
	"splitcnn/internal/experiments"
	"splitcnn/internal/graph"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/serve"
	"splitcnn/internal/sim"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
	"splitcnn/internal/train"
)

func benchOpts(b *testing.B) experiments.Options {
	b.Helper()
	scale, err := experiments.ParseScale(os.Getenv("SPLITCNN_SCALE"))
	if err != nil {
		scale = experiments.Quick
	}
	if os.Getenv("SPLITCNN_SCALE") == "" {
		scale = experiments.Quick
	}
	out := io.Writer(io.Discard)
	if testing.Verbose() {
		out = os.Stdout
	}
	return experiments.Options{Scale: scale, Device: costmodel.P100(), Out: out}
}

// --- Paper figures and tables ---

// BenchmarkFig1Profile regenerates Figure 1 (generated vs offload-able
// data per layer for VGG-19 and ResNet-18).
func BenchmarkFig1Profile(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig1(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].Limit*100, "vgg-offloadable-%")
		b.ReportMetric(series[1].Limit*100, "resnet18-offloadable-%")
	}
}

// BenchmarkFig4SplitDepth regenerates Figure 4 (test error vs splitting
// depth). Real CPU training — prefer -benchtime=1x.
func BenchmarkFig4SplitDepth(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TestErr*100, "vgg-baseline-err-%")
		b.ReportMetric(rows[4].TestErr*100, "vgg-depth50-err-%")
	}
}

// BenchmarkFig5NumSplits regenerates Figure 5 (test error vs number of
// splits at depth 25%).
func BenchmarkFig5NumSplits(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TestErr*100, "vgg-1split-err-%")
		b.ReportMetric(rows[5].TestErr*100, "vgg-9split-err-%")
	}
}

// BenchmarkFig6Stochastic regenerates Figure 6 (stochastic splitting vs
// baseline, evaluated on the unsplit network).
func BenchmarkFig6Stochastic(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TestErr*100, "vgg-baseline-err-%")
		b.ReportMetric(rows[2].TestErr*100, "vgg-sscnn-err-%")
	}
}

// BenchmarkTable1Accuracy regenerates Table 1 / Figure 7 (baseline vs
// SCNN vs SSCNN across four architectures).
func BenchmarkTable1Accuracy(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

// BenchmarkFig8Throughput regenerates Figure 8 (training throughput of
// the three scheduling methods).
func BenchmarkFig8Throughput(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Network == "vgg19" && r.Method == sim.MethodHMMS {
				b.ReportMetric(r.Degradation*100, "vgg-hmms-degr-%")
			}
			if r.Network == "vgg19" && r.Method == sim.MethodLayerWise {
				b.ReportMetric(r.Degradation*100, "vgg-layerwise-degr-%")
			}
		}
	}
}

// BenchmarkFig9Timelines regenerates Figure 9 (stream timelines).
func BenchmarkFig9Timelines(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].Stall*1e3, "layerwise-stall-ms")
		b.ReportMetric(rows[2].Stall*1e3, "hmms-stall-ms")
	}
}

// BenchmarkFig10MaxBatch regenerates Figure 10 (maximum batch size with
// Split-CNN + HMMS vs baseline).
func BenchmarkFig10MaxBatch(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].BatchRatio, "vgg-batch-ratio")
		b.ReportMetric(rows[1].BatchRatio, "resnet18-batch-ratio")
	}
}

// BenchmarkFig11Distributed regenerates Figure 11 (distributed-training
// speedup vs bandwidth).
func BenchmarkFig11Distributed(b *testing.B) {
	opt := benchOpts(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.BandwidthGbit == 10 {
				b.ReportMetric(p.Speedup, "speedup-at-10gbit")
			}
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationAllocator compares the first-fit static planner
// against no-reuse allocation on VGG-19's device general pool.
func BenchmarkAblationAllocator(b *testing.B) {
	m := models.VGG19ImageNet(16)
	prog, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		b.Fatal(err)
	}
	assign := hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
	for i := 0; i < b.N; i++ {
		ff := hmms.PlanMemory(prog, assign, hmms.PlanNone(), hmms.FirstFit)
		nr := hmms.PlanMemory(prog, assign, hmms.PlanNone(), hmms.NoReuse)
		b.ReportMetric(float64(ff.PoolBytes[hmms.PoolDeviceGeneral])/1e9, "firstfit-GB")
		b.ReportMetric(float64(nr.PoolBytes[hmms.PoolDeviceGeneral])/1e9, "noreuse-GB")
	}
}

// BenchmarkAblationStorageOpt measures the §4.2 storage optimizations
// (in-place ReLU + summation error sharing) on ResNet-18.
func BenchmarkAblationStorageOpt(b *testing.B) {
	m := models.ResNet18ImageNet(16)
	prog, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		with := hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
		without := hmms.AssignStorage(prog, hmms.StorageOpts{})
		mw := hmms.PlanMemory(prog, with, hmms.PlanNone(), hmms.FirstFit)
		mo := hmms.PlanMemory(prog, without, hmms.PlanNone(), hmms.FirstFit)
		b.ReportMetric(float64(mw.PoolBytes[hmms.PoolDeviceGeneral])/1e9, "optimized-GB")
		b.ReportMetric(float64(mo.PoolBytes[hmms.PoolDeviceGeneral])/1e9, "unoptimized-GB")
	}
}

// BenchmarkAblationSplitOverhead quantifies what splitting costs and
// buys at the same batch size: simulated step-time overhead of the patch
// bookkeeping vs. the reduction in planned device memory (§6.3's
// workspace-reuse and bottleneck-breaking effects).
func BenchmarkAblationSplitOverhead(b *testing.B) {
	m := models.VGG19ImageNet(64)
	base, _, baseMem, err := sim.PlanAndRun(m.Graph, costmodel.P100(), sim.MethodHMMS, -1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sr, err := core.Split(m.Graph, core.Config{Depth: 0.75, NH: 2, NW: 2})
		if err != nil {
			b.Fatal(err)
		}
		res, _, mem, err := sim.PlanAndRun(sr.Graph, costmodel.P100(), sim.MethodHMMS, -1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((res.TotalTime/base.TotalTime-1)*100, "step-overhead-%")
		b.ReportMetric(float64(baseMem.DeviceBytes()-mem.DeviceBytes())/1e9, "memory-saved-GB")
	}
}

// BenchmarkAblationPolicy compares the lb/midpoint/ub boundary policies'
// forward-output divergence from the unsplit network on a 3x3 conv.
func BenchmarkAblationPolicy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	x := g.Input("image", tensor.Shape{4, 8, 32, 32})
	w := g.Param("c.w", tensor.Shape{8, 8, 3, 3})
	bb := g.Param("c.b", tensor.Shape{8})
	out := g.Add("c", nn.NewConv(3, 1, 1), x, w, bb)
	g.SetOutput(out)
	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	xt := tensor.New(4, 8, 32, 32)
	xt.RandNormal(rng, 1)
	feeds := graph.Feeds{"image": xt}
	run := func(gr *graph.Graph) *tensor.Tensor {
		ex, err := graph.NewExecutor(gr, store)
		if err != nil {
			b.Fatal(err)
		}
		outs, err := ex.Forward(feeds)
		if err != nil {
			b.Fatal(err)
		}
		return outs[0]
	}
	ref := run(g)
	for i := 0; i < b.N; i++ {
		for _, p := range []core.BoundaryPolicy{core.PolicyLower, core.PolicyMidpoint, core.PolicyUpper} {
			sr, err := core.Split(g, core.Config{Depth: 1, NH: 2, NW: 2, Policy: p})
			if err != nil {
				b.Fatal(err)
			}
			got := run(sr.Graph)
			b.ReportMetric(tensor.MaxAbsDiff(got, ref), p.String()+"-maxdiff")
		}
	}
}

// --- Kernel micro-benchmarks ---

// BenchmarkConv2DForward measures the default (implicit-GEMM im2col)
// convolution kernel.
func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(8, 64, 32, 32)
	w := tensor.New(64, 64, 3, 3)
	bias := tensor.New(64)
	x.RandNormal(rng, 1)
	w.RandNormal(rng, 0.1)
	p := tensor.ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: tensor.Symmetric(1)}
	dst := tensor.New(8, 64, 32, 32)
	a := tensor.NewArena()
	flops := 2 * int64(8*64*32*32) * int64(64*9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DInto(a, dst, x, w, bias, p)
	}
	b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkConv2DFFT measures the FFT convolution backend on an
// FFT-favorable geometry: a 5x5 kernel, where the spectral MAC's
// O(HW log HW) arithmetic amortizes best against im2col's 25x lowering.
func BenchmarkConv2DFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(4, 32, 32, 32)
	w := tensor.New(32, 32, 5, 5)
	bias := tensor.New(32)
	x.RandNormal(rng, 1)
	w.RandNormal(rng, 0.1)
	p := tensor.ConvParams{KH: 5, KW: 5, SH: 1, SW: 1, Pad: tensor.Symmetric(2)}
	dst := tensor.New(4, 32, 32, 32)
	flops := 2 * int64(4*32*32*32) * int64(32*25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DFFTInto(dst, x, w, bias, p)
	}
	b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkAutotunedConv dispatches the BenchmarkConv2DForward geometry
// through the autotuner's measured winner (tuned once, outside the
// timer) via the real nn.Conv forward path — the tuned-vs-untuned
// comparison the perf log records.
func BenchmarkAutotunedConv(b *testing.B) {
	defer autotune.Default.Reset()
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(8, 64, 32, 32)
	w := tensor.New(64, 64, 3, 3)
	bias := tensor.New(64)
	x.RandNormal(rng, 1)
	w.RandNormal(rng, 0.1)
	p := tensor.ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: tensor.Symmetric(1)}
	autotune.Default.Tune(p, x.Shape(), 64)
	op := &nn.Conv{Params: p, HasBias: true}
	in := []*tensor.Tensor{x, w, bias}
	dst := tensor.New(8, 64, 32, 32)
	a := tensor.NewArena()
	flops := 2 * int64(8*64*32*32) * int64(64*9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.ForwardInto(a, dst, in)
	}
	b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkMatMul measures the blocked packed SGEMM on a square
// problem large enough to stream through all cache levels.
func BenchmarkMatMul(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(n, n)
	y := tensor.New(n, n)
	dst := tensor.New(n, n)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 1)
	flops := 2 * int64(n) * int64(n) * int64(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, x, y)
	}
	b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkIm2Col measures the stride-1 lowering fast path on the same
// geometry BenchmarkConv2DForward convolves; the metric is column-matrix
// bytes produced per second.
func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(8, 64, 32, 32)
	x.RandNormal(rng, 1)
	p := tensor.ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: tensor.Symmetric(1)}
	a := tensor.NewArena()
	bytes := int64(64*9*8*32*32) * 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := tensor.Im2ColArena(a, x, p)
		a.Put(col)
	}
	b.ReportMetric(float64(bytes*int64(b.N))/b.Elapsed().Seconds()/1e9, "GB/s")
}

// BenchmarkTrainStep measures one full arena-backed training step
// (forward, backward, SGD) of a small CNN. With b.ReportAllocs the
// allocs/op column doubles as a live view of the zero-allocation
// contract that internal/train's TestTrainStepZeroAlloc enforces.
func BenchmarkTrainStep(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	const batch = 8
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	x := g.Input("image", tensor.Shape{batch, 3, 32, 32})
	labels := g.Input("labels", tensor.Shape{batch})
	w1 := g.Param("c1.w", tensor.Shape{16, 3, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{16})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1)
	r1 := g.Add("r1", nn.ReLU{}, c1)
	mp := g.Add("mp", nn.NewMaxPool(2, 2), r1)
	gap := g.Add("gap", nn.GlobalAvgPool{}, mp)
	fl := g.Add("fl", nn.Flatten{}, gap)
	wf := g.Param("fc.w", tensor.Shape{10, 16})
	bf := g.Param("fc.b", tensor.Shape{10})
	fc := g.Add("fc", nn.Linear{}, fl, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, fc, labels)
	g.SetOutput(loss)
	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		b.Fatal(err)
	}
	ex.UseArena(tensor.NewArena())
	opt := &train.SGD{LR: 0.01, Momentum: 0.9}
	xt := tensor.New(batch, 3, 32, 32)
	yt := tensor.New(batch)
	xt.RandNormal(rng, 1)
	for i := range yt.Data() {
		yt.Data()[i] = float32(i % 10)
	}
	feeds := graph.Feeds{"image": xt, "labels": yt}
	step := func() {
		store.ZeroGrads()
		if _, err := ex.Forward(feeds); err != nil {
			b.Fatal(err)
		}
		if err := ex.Backward(); err != nil {
			b.Fatal(err)
		}
		opt.Step(store)
	}
	for i := 0; i < 3; i++ {
		step() // warm the arena and free lists
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkTrainStepSteplog is BenchmarkTrainStep with the step
// telemetry path turned on: the per-step Norms pass plus one JSONL
// record to a discarded sink — exactly what `splitcnn train -steplog`
// adds to each optimizer step. Compare against BenchmarkTrainStep to
// price the telemetry (<5% on warmed steps is the budget).
func BenchmarkTrainStepSteplog(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	const batch = 8
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	x := g.Input("image", tensor.Shape{batch, 3, 32, 32})
	labels := g.Input("labels", tensor.Shape{batch})
	w1 := g.Param("c1.w", tensor.Shape{16, 3, 3, 3})
	b1 := g.Param("c1.b", tensor.Shape{16})
	c1 := g.Add("c1", nn.NewConv(3, 1, 1), x, w1, b1)
	r1 := g.Add("r1", nn.ReLU{}, c1)
	mp := g.Add("mp", nn.NewMaxPool(2, 2), r1)
	gap := g.Add("gap", nn.GlobalAvgPool{}, mp)
	fl := g.Add("fl", nn.Flatten{}, gap)
	wf := g.Param("fc.w", tensor.Shape{10, 16})
	bf := g.Param("fc.b", tensor.Shape{10})
	fc := g.Add("fc", nn.Linear{}, fl, wf, bf)
	loss := g.Add("loss", nn.SoftmaxCrossEntropy{}, fc, labels)
	g.SetOutput(loss)
	store := graph.NewParamStore()
	store.InitFromGraph(g, rng, nn.KaimingInit)
	ex, err := graph.NewExecutor(g, store)
	if err != nil {
		b.Fatal(err)
	}
	ex.UseArena(tensor.NewArena())
	opt := &train.SGD{LR: 0.01, Momentum: 0.9}
	xt := tensor.New(batch, 3, 32, 32)
	yt := tensor.New(batch)
	xt.RandNormal(rng, 1)
	for i := range yt.Data() {
		yt.Data()[i] = float32(i % 10)
	}
	feeds := graph.Feeds{"image": xt, "labels": yt}
	log := trace.NewStepLog(io.Discard)
	stepNo := 0
	step := func() {
		store.ZeroGrads()
		outs, err := ex.Forward(feeds)
		if err != nil {
			b.Fatal(err)
		}
		if err := ex.Backward(); err != nil {
			b.Fatal(err)
		}
		opt.Step(store)
		stepNo++
		gradNorm, paramNorm := train.Norms(store)
		if err := log.Step(trace.StepRecord{
			Step: stepNo, Loss: float64(outs[0].Data()[0]),
			GradNorm: gradNorm, ParamNorm: paramNorm, LR: opt.LR,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step() // warm the arena and free lists
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// benchEvalModel builds the mini eval-mode VGG-19 used by the
// forward-path benchmarks: BN folds in place and every conv+ReLU pair
// fuses under the compiler, so the interpreted/compiled pair prices
// exactly what graph.Compile buys.
func benchEvalModel(b *testing.B) (*models.Model, *graph.ParamStore, graph.Feeds) {
	b.Helper()
	const batch = 8
	m, err := models.Build("vgg19", models.Config{
		BatchSize: batch, Classes: 10, InputC: 3, InputH: 32, InputW: 32,
		WidthDiv: 16, BatchNorm: true, Eval: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Graph.SetOutput(m.Logits)
	rng := rand.New(rand.NewSource(1))
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rng, nn.KaimingInit)
	xt := tensor.New(batch, 3, 32, 32)
	xt.RandNormal(rng, 1)
	return m, store, graph.Feeds{"image": xt, "labels": tensor.New(batch)}
}

// BenchmarkInterpretedForward is the eval-mode forward pass through the
// interpreted arena executor — the baseline BenchmarkCompiledForward is
// read against.
func BenchmarkInterpretedForward(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	m, store, feeds := benchEvalModel(b)
	ex, err := graph.NewExecutor(m.Graph, store)
	if err != nil {
		b.Fatal(err)
	}
	ex.UseArena(tensor.NewArena())
	for i := 0; i < 3; i++ {
		if _, err := ex.Forward(feeds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Forward(feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledForward is the same forward through graph.Compile's
// static program: fused conv+bias+ReLU passes, in-place BN epilogues,
// and a fixed-offset slab instead of per-op arena traffic. Warmed runs
// are zero-allocation (pinned by TestCompiledForwardZeroAlloc).
func BenchmarkCompiledForward(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	m, store, feeds := benchEvalModel(b)
	prog, err := graph.Compile(m.Graph, store, graph.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := prog.Forward(feeds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Forward(feeds); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInstanceRun measures serve.Instance.Run at a live batch of n
// images on the serving workloads' model (mini VGG-19, width÷16, BN,
// 3×32×32, MaxBatch 8): the local guard for serve.instance_run_b1_ms and
// _b8_ms. A batch computes only its n images, so b1 costs a fraction of
// b8.
func benchInstanceRun(b *testing.B, n int) {
	inst, err := serve.Load(serve.Spec{
		Name: "vgg19", Arch: "vgg19", MaxBatch: 8,
		Model: models.Config{Classes: 10, InputC: 3, InputH: 32, InputW: 32, WidthDiv: 16, BatchNorm: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	imgs := make([][]float32, n)
	for i := range imgs {
		imgs[i] = make([]float32, inst.ImageLen())
		for j := range imgs[i] {
			imgs[i][j] = float32(rng.NormFloat64())
		}
	}
	if _, err := inst.Run(imgs); err != nil { // warm this live batch
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := inst.Run(imgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceRunB1(b *testing.B) { benchInstanceRun(b, 1) }

func BenchmarkInstanceRunB8(b *testing.B) { benchInstanceRun(b, 8) }

// BenchmarkSplitTransform measures the graph rewriter itself on the
// full-size ResNet-50 — the cost stochastic splitting pays per
// minibatch.
func BenchmarkSplitTransform(b *testing.B) {
	m := models.ResNet50ImageNet(32)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Split(m.Graph, core.Config{
			Depth: 0.812, NH: 2, NW: 2, Stochastic: true, Omega: 0.2, Rng: rng,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHMMSPipeline measures the offline planning cost (serialize,
// assign, plan, lay out) for ResNet-50 — the "no tuning required"
// overhead the paper contrasts with vDNN's trial-and-error.
func BenchmarkHMMSPipeline(b *testing.B) {
	m := models.ResNet50ImageNet(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := sim.PlanAndRun(m.Graph, costmodel.P100(), sim.MethodHMMS, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// planRefGraph is split ResNet-50 b32 (2×2 patches over the first 75 %
// of convolutions): the reference configuration of the plan_imagenet
// workload, on which its per-stage timings are taken.
func planRefGraph(b *testing.B) *graph.Graph {
	b.Helper()
	sr, err := core.Split(models.ResNet50ImageNet(32).Graph, core.Config{Depth: 0.75, NH: 2, NW: 2})
	if err != nil {
		b.Fatal(err)
	}
	return sr.Graph
}

// BenchmarkBuildProgram measures serializing the plan_imagenet
// reference graph into a forward+backward program (hmms.BuildProgram),
// the workload's hmms.build_program_ms stage.
func BenchmarkBuildProgram(b *testing.B) {
	g := planRefGraph(b)
	dev := costmodel.P100()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := hmms.BuildProgram(g, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanMemory measures static memory planning (hmms.PlanMemory:
// lifetimes plus first-fit layout of every pool) of the plan_imagenet
// reference graph under its HMMS offload plan, the workload's
// hmms.plan_memory_ms stage.
func BenchmarkPlanMemory(b *testing.B) {
	prog, err := hmms.BuildProgram(planRefGraph(b), costmodel.P100())
	if err != nil {
		b.Fatal(err)
	}
	assign := hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
	plan, err := hmms.PlanOffload(prog, assign, prog.TheoreticalOffloadLimit())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		hmms.PlanMemory(prog, assign, plan, hmms.FirstFit)
	}
}

// BenchmarkDeviceReplay measures the discrete-event replay of one
// planned step (sim.Replay) on the plan_imagenet reference graph, whose
// sim.replay_ms it guards locally.
func BenchmarkDeviceReplay(b *testing.B) {
	dev := costmodel.P100()
	prog, plan, mem, err := sim.Plan(planRefGraph(b), dev, sim.MethodHMMS, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sim.Replay(prog, plan, mem, dev.MemCapacity); err != nil {
			b.Fatal(err)
		}
	}
}
