// Command splitcnn is the command-line entry point of the Split-CNN +
// HMMS reproduction. Subcommands:
//
//	splitcnn experiment <id> [-scale quick|standard|full]
//	    regenerate a paper table or figure (fig1 fig4 fig5 fig6 fig7
//	    fig8 fig9 fig10 fig11 table1)
//	splitcnn profile   -arch vgg19 -batch 64
//	    print the Figure 1-style layer profile of a model
//	splitcnn plan      -arch vgg19 -batch 64 -method hmms [-split] [-tuned]
//	    run the HMMS pipeline and report throughput and memory pools;
//	    -tuned plans with autotuned (measured) convolution times
//	splitcnn transform -arch vgg19 -depth 0.5 -nh 2 -nw 2
//	    show what the Split-CNN graph transformation does to a model
//	splitcnn maxbatch  -arch vgg19 [-split -depth 0.75] [-device v100]
//	    search the largest batch that trains within the device memory
//	splitcnn train     -arch vgg19 -epochs 6 [-depth 0.5 -splits 4
//	    -stochastic] [-steplog run.jsonl -guards -listen :8080
//	    -calibrate]
//	    train a scaled-down model on the synthetic CIFAR-like dataset,
//	    optionally streaming per-step telemetry, arming anomaly guards
//	    with a flight recorder, serving a live dashboard, and reporting
//	    cost-model drift
//	splitcnn trace     -model alexnet -policy hmms [-replay]
//	    export a run's stream timeline as Chrome trace_event JSON plus
//	    a metrics JSON
//	splitcnn report    -model vgg19 -policy hmms [-split] [-measured]
//	    render a self-contained HTML/SVG memory-occupancy-vs-time
//	    report, one chart per HMMS memory pool; -train run.jsonl
//	    renders the training page (loss, grad norms, step time) from a
//	    steplog stream instead; -dist <trace.json|router URL> renders
//	    the stitched distributed gang timeline for one request
//	splitcnn compile   -arch vgg19 [-plan] [-o plan.html]
//	    lower a model through graph.Compile (inference fusion + static
//	    memory plan) and dump the plan; verifies plotted peak == slab
//	splitcnn tune      -arch alexnet -batch 8 [-split] [-tunecache f]
//	    micro-benchmark every convolution backend (im2col, Winograd,
//	    direct, FFT) per layer shape, print the algorithm table with
//	    measured GFLOP/s, and persist the winning plans
//	splitcnn serve     -addr :8080 -arch vgg19 -snapshot w.snap
//	    HTTP inference server with dynamic micro-batching
//	splitcnn worker    -addr :9090 -arch vgg19 -snapshot w.snap [-maxpods 4]
//	    distributed split-inference shard worker (RPC)
//	splitcnn router    -addr :8080 -workers host:9090,host:9091 [-smoke]
//	    health-checked router scattering spatial shards across workers;
//	    federates worker metrics on /clusterz, stitches cross-process
//	    request traces on /tracez, and publishes SLO burn-rate gauges
//	    (-slo "p99=50ms,err=0.1%")
//	splitcnn version
//	    print the binary's build provenance
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"splitcnn/internal/modelfile"

	"splitcnn/internal/autotune"
	"splitcnn/internal/buildinfo"
	"splitcnn/internal/core"
	"splitcnn/internal/costmodel"
	"splitcnn/internal/data"
	"splitcnn/internal/experiments"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/sim"
	"splitcnn/internal/trace"
	"splitcnn/internal/train"
)

// subcommands is the dispatch table; usage lists it in this order.
var subcommands = []struct {
	name string
	run  func(args []string) error
	help string
}{
	{"experiment", cmdExperiment, "regenerate a paper table/figure (%v)"},
	{"profile", cmdProfile, "Figure 1-style layer profile of a model"},
	{"plan", cmdPlan, "run the HMMS pipeline on a model"},
	{"transform", cmdTransform, "inspect the Split-CNN graph transformation"},
	{"maxbatch", cmdMaxBatch, "search the largest trainable batch on a device"},
	{"train", cmdTrain, `train a scaled-down model on synthetic data
(-steplog for per-step telemetry JSONL, -guards for
NaN/Inf + explosion guards with a flight recorder,
-listen for a live dashboard, -calibrate for
plan-vs-actual op-time drift)`},
	{"trace", cmdTrace, `export a run's stream timeline (Chrome trace_event
JSON for chrome://tracing) plus a metrics JSON`},
	{"report", cmdReport, `render a self-contained HTML/SVG memory-occupancy
report, one chart per HMMS memory pool (-measured
to time real kernels via internal/profile), the
training page from a steplog (-train run.jsonl), or
the distributed gang timeline for one stitched
request (-dist trace.json or -dist http://router)`},
	{"compile", cmdCompile, `lower a model through graph.Compile and dump the
rewrite stats + static memory plan (-plan for the
per-node table, -o for the HTML slab timeline);
self-verifies plotted peak == mapped slab`},
	{"tune", cmdTune, `micro-benchmark the convolution backends (im2col,
Winograd, direct, FFT) on every distinct layer shape
and persist the winning per-shape plans
(-tunecache for the cache file, "off" to disable)`},
	{"serve", cmdServe, `HTTP inference server with dynamic micro-batching
over the compiled static program (-smoke for a CI
self-test)`},
	{"worker", cmdWorker, `shard-evaluation worker for distributed
split-inference: owns a band of feature-map rows per
stage and serves Shard.{Eval,Halo,Health} over RPC`},
	{"router", cmdRouter, `health-checked front end over shard workers: spatial
scatter/gather with halo exchange, least-loaded gang
dispatch, whole-gang retry on worker failure;
observability plane federates worker metrics on
/clusterz, stitches skew-corrected cross-process
traces on /tracez and publishes -slo burn-rate
gauges (-spawn N for a loopback fleet, -smoke for
the CI bit-identity + crash-recovery +
observability self-test)`},
	{"version", cmdVersion, "print the binary's build provenance"},
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	var err error
	switch name {
	case "-version", "--version":
		err = cmdVersion(args)
	case "help", "-h", "--help":
		usage(os.Stderr)
	default:
		if run := lookup(name); run != nil {
			err = run(args)
		} else {
			usage(os.Stderr)
			err = fmt.Errorf("unknown subcommand %q", name)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitcnn:", err)
		os.Exit(1)
	}
}

// lookup returns the subcommand called name, or nil.
func lookup(name string) func(args []string) error {
	for _, c := range subcommands {
		if c.name == name {
			return c.run
		}
	}
	return nil
}

func cmdVersion([]string) error {
	fmt.Println(buildinfo.Get())
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: splitcnn <subcommand> [flags]\n\nsubcommands:\n")
	for _, c := range subcommands {
		name, help := c.name, c.help
		if name == "experiment" {
			name, help = "experiment <id>", fmt.Sprintf(help, experiments.IDs())
		}
		for i, line := range strings.Split(help, "\n") {
			fmt.Fprintf(w, "  %-16s  %s\n", name, line)
			if i == 0 {
				name = ""
			}
		}
	}
}

func deviceFlag(fs *flag.FlagSet) *string {
	return fs.String("device", "p100", "device model: p100 or v100")
}

func pickDevice(name string) (costmodel.DeviceSpec, error) {
	switch name {
	case "p100":
		return costmodel.P100(), nil
	case "v100":
		return costmodel.V100(), nil
	}
	return costmodel.DeviceSpec{}, fmt.Errorf("unknown device %q", name)
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	scale := fs.String("scale", "standard", "experiment scale: quick, standard or full")
	dev := deviceFlag(fs)
	seed := fs.Int64("seed", 0, "seed offset for training experiments")
	traceDir := fs.String("tracedir", "", "write per-run trace/metrics JSON into this directory (fig8, fig9)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("experiment: want an experiment id (%v)", experiments.IDs())
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	d, err := pickDevice(*dev)
	if err != nil {
		return err
	}
	opt := experiments.Options{Scale: sc, Device: d, Out: os.Stdout, Seed: *seed, TraceDir: *traceDir}
	for _, id := range fs.Args() {
		if err := experiments.Run(id, opt); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func buildFullSize(arch string, batch int) (*models.Model, error) {
	return models.Build(arch, models.Config{
		BatchSize: batch, Classes: 1000, InputC: 3, InputH: 224, InputW: 224,
	})
}

// buildModel resolves -model (a model-description file) or -arch (a
// built-in full-size architecture).
func buildModel(modelPath, arch string, batch int) (*models.Model, error) {
	if modelPath == "" {
		return buildFullSize(arch, batch)
	}
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return modelfile.Parse(f, batch)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	arch := fs.String("arch", "vgg19", "architecture")
	batch := fs.Int("batch", 64, "batch size")
	dev := deviceFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := pickDevice(*dev)
	if err != nil {
		return err
	}
	m, err := buildFullSize(*arch, *batch)
	if err != nil {
		return err
	}
	prog, err := hmms.BuildProgram(m.Graph, d)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-10s %10s %12s %12s\n", "layer", "kind", "time(us)", "gen(MB)", "offl(MB)")
	for _, r := range prog.ProfileForward() {
		fmt.Printf("%-20s %-10s %10.1f %12.2f %12.2f\n",
			r.Name, r.Kind, r.Time*1e6, float64(r.GeneratedBytes)/1e6, float64(r.OffloadableBytes)/1e6)
	}
	fmt.Printf("\nforward %.1f ms, backward %.1f ms, stashed %.2f GB, offloadable without loss: %.0f%%\n",
		prog.ForwardTime()*1e3, prog.BackwardTime()*1e3,
		float64(prog.StashedBytes())/1e9, prog.TheoreticalOffloadLimit()*100)
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	arch := fs.String("arch", "vgg19", "architecture")
	model := fs.String("model", "", "model description file (overrides -arch)")
	batch := fs.Int("batch", 64, "batch size")
	method := fs.String("method", "hmms", "memory plan: none, layerwise or hmms")
	doSplit := fs.Bool("split", false, "apply the Split-CNN transformation first")
	depth := fs.Float64("depth", 0.75, "splitting depth (with -split)")
	nh := fs.Int("nh", 2, "patch rows (with -split)")
	nw := fs.Int("nw", 2, "patch cols (with -split)")
	tuned := fs.Bool("tuned", false, "autotune the conv layers first and plan with their measured times instead of the roofline model")
	dev := deviceFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := pickDevice(*dev)
	if err != nil {
		return err
	}
	m, err := buildModel(*model, *arch, *batch)
	if err != nil {
		return err
	}
	g := m.Graph
	if *doSplit {
		sr, err := core.Split(g, core.Config{Depth: *depth, NH: *nh, NW: *nw})
		if err != nil {
			return err
		}
		fmt.Printf("split %d/%d convolution layers into %dx%d patches\n",
			sr.SplitConvs, sr.TotalConvs, *nh, *nw)
		g = sr.Graph
	}
	var mm sim.Method
	switch *method {
	case "none":
		mm = sim.MethodNone
	case "layerwise":
		mm = sim.MethodLayerWise
	case "hmms":
		mm = sim.MethodHMMS
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	var res *sim.Result
	var prog *hmms.Program
	var mem *hmms.MemoryPlan
	if *tuned {
		// Measure each distinct conv shape once (one timed trial is
		// enough to rank backends) and feed the winners' times into the
		// planner through the measured-override timer.
		autotune.Default.Trials = 1
		n := len(autotune.Default.TuneGraph(g))
		fmt.Printf("autotuned %d conv sites; planning with measured conv times\n", n)
		tp, plan, tm, terr := sim.PlanTimed(g, d, hmms.MeasuredTimer(d, autotune.Default.Overrides), mm, -1)
		if terr != nil {
			return terr
		}
		prog, mem = tp, tm
		if res, terr = sim.Run(tp, plan, tm); terr != nil {
			return terr
		}
	} else if res, prog, mem, err = sim.PlanAndRun(g, d, mm, -1); err != nil {
		return err
	}
	fmt.Printf("method:            %s\n", res.Method)
	fmt.Printf("step time:         %.1f ms (compute %.1f ms, stall %.1f ms)\n",
		res.TotalTime*1e3, res.ComputeTime*1e3, res.StallTime*1e3)
	fmt.Printf("throughput:        %.1f images/s\n", res.Throughput(*batch))
	fmt.Printf("offloaded:         %.2f GB of %.2f GB stashed\n",
		float64(res.OffloadedBytes)/1e9, float64(prog.StashedBytes())/1e9)
	fmt.Printf("device pools:      general %.2f GB + parameters %.2f GB = %.2f GB (capacity %.0f GB)\n",
		float64(mem.PoolBytes[hmms.PoolDeviceGeneral])/1e9,
		float64(mem.PoolBytes[hmms.PoolDeviceParam])/1e9,
		float64(mem.DeviceBytes())/1e9, float64(d.MemCapacity)/1e9)
	fmt.Printf("host pinned pool:  %.2f GB\n", float64(mem.PoolBytes[hmms.PoolHost])/1e9)
	return nil
}

func cmdMaxBatch(args []string) error {
	fs := flag.NewFlagSet("maxbatch", flag.ExitOnError)
	arch := fs.String("arch", "vgg19", "architecture")
	doSplit := fs.Bool("split", false, "apply Split-CNN (depth/nh/nw) + HMMS")
	depth := fs.Float64("depth", 0.75, "splitting depth (with -split)")
	nh := fs.Int("nh", 2, "patch rows")
	nw := fs.Int("nw", 2, "patch cols")
	dev := deviceFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := pickDevice(*dev)
	if err != nil {
		return err
	}
	eval := func(batch int) (int64, error) {
		m, err := buildFullSize(*arch, batch)
		if err != nil {
			return 0, err
		}
		g := m.Graph
		method := sim.MethodNone
		if *doSplit {
			sr, err := core.Split(g, core.Config{Depth: *depth, NH: *nh, NW: *nw})
			if err != nil {
				return 0, err
			}
			g = sr.Graph
			method = sim.MethodHMMS
		}
		_, _, mem, err := sim.PlanAndRun(g, d, method, -1)
		if err != nil {
			return 0, err
		}
		return mem.DeviceBytes(), nil
	}
	batch, err := sim.MaxBatch(d.MemCapacity, 8192, eval)
	if err != nil {
		return err
	}
	bytes, err := eval(batch)
	if err != nil {
		return err
	}
	mode := "baseline"
	if *doSplit {
		mode = fmt.Sprintf("split(%dx%d, depth %.0f%%)+hmms", *nh, *nw, *depth*100)
	}
	fmt.Printf("%s %s on %s (%.0f GiB): max batch %d (planned %.2f GiB)\n",
		*arch, mode, d.Name, float64(d.MemCapacity)/(1<<30), batch, float64(bytes)/(1<<30))
	return nil
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	arch := fs.String("arch", "vgg19", "architecture")
	batch := fs.Int("batch", 1, "batch size")
	depth := fs.Float64("depth", 0.5, "splitting depth")
	nh := fs.Int("nh", 2, "patch rows")
	nw := fs.Int("nw", 2, "patch cols")
	stochastic := fs.Bool("stochastic", false, "stochastic boundaries (ω=0.2)")
	dot := fs.String("dot", "", "write the transformed graph as Graphviz DOT to this file")
	model := fs.String("model", "", "model description file (overrides -arch)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := buildModel(*model, *arch, *batch)
	if err != nil {
		return err
	}
	cfg := core.Config{Depth: *depth, NH: *nh, NW: *nw}
	if *stochastic {
		cfg.Stochastic, cfg.Omega, cfg.Rng = true, 0.2, rand.New(rand.NewSource(1))
	}
	sr, err := core.Split(m.Graph, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("architecture:      %s (%d nodes, %d convolution layers)\n",
		m.Name, len(m.Graph.Nodes), m.ConvCount())
	fmt.Printf("requested depth:   %.1f%%  realized: %.1f%% (%d/%d convs)\n",
		*depth*100, sr.RealizedDepth()*100, sr.SplitConvs, sr.TotalConvs)
	fmt.Printf("patch grid:        %dx%d (%d patches)\n", *nh, *nw, *nh**nw)
	fmt.Printf("split region:      %d layers x %d patches\n", len(sr.RegionOps), *nh**nw)
	fmt.Printf("join points:       %v\n", sr.JoinNames)
	fmt.Printf("transformed graph: %d nodes\n", len(sr.Graph.Nodes))
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sr.Graph.WriteDOT(f, m.Name+"-split"); err != nil {
			return err
		}
		fmt.Printf("dot graph:         %s\n", *dot)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	arch := fs.String("arch", "vgg19", "architecture")
	epochs := fs.Int("epochs", 6, "training epochs")
	batch := fs.Int("batch", 32, "batch size")
	widthDiv := fs.Int("widthdiv", 16, "channel width divisor (mini models)")
	depth := fs.Float64("depth", 0, "splitting depth (0 = baseline)")
	splits := fs.Int("splits", 4, "number of patches (1, 2, 3, 4, 6 or 9)")
	stochastic := fs.Bool("stochastic", false, "stochastic splitting (ω=0.2), evaluated unsplit")
	trainN := fs.Int("train", 1024, "training samples")
	testN := fs.Int("test", 512, "test samples")
	seed := fs.Int64("seed", 7, "random seed")
	traceOut := fs.String("trace", "", "write a per-op execution trace (Chrome trace_event JSON) to this file")
	metricsOut := fs.String("metrics", "", "write trainer metrics JSON to this file")
	savePath := fs.String("save", "", "write a weight snapshot (parameters + BN running stats) after training")
	loadPath := fs.String("load", "", "restore a weight snapshot before training")
	stepLogOut := fs.String("steplog", "", "write per-step telemetry (loss, grad/param norms, step time) as JSONL to this file")
	checkLog := fs.Bool("checksteplog", false, "validate the -steplog file after the run (schema + monotonic steps)")
	listen := fs.String("listen", "", "serve the live trainer dashboard (/, /metricsz, /healthz) on this address")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof on the dashboard (with -listen)")
	guards := fs.Bool("guards", false, "arm the NaN/Inf and gradient-explosion guards; a trip halts the run")
	maxGrad := fs.Float64("maxgradnorm", 0, "gradient-explosion threshold on the global grad L2 norm (with -guards; 0 = 1e6)")
	flight := fs.String("flight", "", "write the flight-recorder dump (recent steps + op spans) here when a guard trips")
	calibrate := fs.Bool("calibrate", false, "after the run, report measured-vs-predicted per-op drift against the -device cost model")
	tune := fs.Bool("tune", false, "autotune the convolution backends on the run's shapes before the first step")
	tuneCache := fs.String("tunecache", "", `autotune plan cache file (with -tune; "" = ~/.cache/splitcnn/autotune.json, "off" = no persistence)`)
	dev := deviceFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	grids := map[int][2]int{1: {1, 1}, 2: {1, 2}, 3: {1, 3}, 4: {2, 2}, 6: {2, 3}, 9: {3, 3}}
	grid, ok := grids[*splits]
	if !ok {
		return fmt.Errorf("unsupported split count %d", *splits)
	}
	dcfg := data.CIFARLike(*trainN, *testN)
	dcfg.Noise = 0.9
	dcfg.MaxShift = 6
	ds, err := data.Synthetic(dcfg)
	if err != nil {
		return err
	}
	var rec *trace.Trace
	var met *trace.Metrics
	if *traceOut != "" {
		rec = trace.New()
	}
	if *metricsOut != "" || *listen != "" || *calibrate {
		met = trace.NewMetrics()
	}
	cfg := train.Config{
		Arch:          *arch,
		Model:         models.Config{WidthDiv: *widthDiv, BatchNorm: true},
		BatchSize:     *batch,
		Epochs:        *epochs,
		LR:            0.05,
		Momentum:      0.9,
		WeightDecay:   1e-4,
		LRDecayEpochs: []int{*epochs * 2 / 3},
		Split:         core.Config{Depth: *depth, NH: grid[0], NW: grid[1], Stochastic: *stochastic, Omega: 0.2},
		EvalUnsplit:   *stochastic,
		Tune:          *tune,
		Seed:          *seed,
		SavePath:      *savePath,
		LoadPath:      *loadPath,
		Progress: func(epoch int, loss, errRate float64) {
			fmt.Printf("epoch %2d  train loss %.4f  test error %.4f\n", epoch, loss, errRate)
		},
	}
	if rec != nil {
		cfg.Recorder = rec
	}
	cfg.Metrics = met
	if *guards || *flight != "" {
		cfg.Guard = train.GuardConfig{Enabled: true, MaxGradNorm: *maxGrad, FlightPath: *flight}
	}
	if *tune {
		path, err := tuneCachePath(*tuneCache)
		if err != nil {
			return err
		}
		cfg.TuneCache = path
	}
	if *calibrate {
		d, err := pickDevice(*dev)
		if err != nil {
			return err
		}
		cfg.Calibrate = &d
	}
	var sl *trace.StepLog
	if *stepLogOut != "" {
		if sl, err = trace.CreateStepLog(*stepLogOut); err != nil {
			return err
		}
		cfg.StepLog = sl
	}
	if *listen != "" {
		dash, err := train.StartDashboard(*listen, met, *pprofOn)
		if err != nil {
			return err
		}
		defer dash.Close()
		fmt.Printf("dashboard: http://%s/\n", dash.Addr())
	}
	res, err := train.Run(cfg, ds)
	// The steplog must flush even when the run halted (a guard trip is
	// exactly when the stream matters most).
	if sl != nil {
		if cerr := sl.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("final test error: %.4f (split %d/%d convs)\n", res.FinalTestErr, res.SplitConvs, res.TotalConvs)
	if sl != nil {
		steps, epochs := sl.Counts()
		fmt.Printf("steplog: %s (%d steps, %d epochs)\n", *stepLogOut, steps, epochs)
		if *checkLog {
			f, err := os.Open(*stepLogOut)
			if err != nil {
				return err
			}
			cs, ce, cerr := trace.CheckStepLog(f)
			f.Close()
			if cerr != nil {
				return fmt.Errorf("steplog check: %w", cerr)
			}
			fmt.Printf("steplog check: ok (%d steps, %d epochs)\n", cs, ce)
		}
	}
	if res.Drift != nil {
		fmt.Printf("calibration: %d ops, drift geomean %.2fx, max %.2fx at %s\n",
			len(res.Drift.Ops), res.Drift.GeoMeanRatio, res.Drift.MaxRatio, res.Drift.MaxOp)
	}
	if *savePath != "" {
		fmt.Printf("snapshot: %s\n", *savePath)
	}
	if rec != nil {
		if err := rec.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("trace:   %s (%d events)\n", *traceOut, rec.Len())
	}
	if met != nil && *metricsOut != "" {
		if err := met.WriteFile(*metricsOut); err != nil {
			return err
		}
		fmt.Printf("metrics: %s\n", *metricsOut)
	}
	return nil
}
