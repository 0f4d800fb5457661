package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"strings"

	"splitcnn/internal/core"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/profile"
	"splitcnn/internal/report"
	"splitcnn/internal/sim"
	"splitcnn/internal/trace"
)

// resolveModelArg resolves a -model value that accepts either a builtin
// architecture name or a model-description file path, returning the
// (modelPath, arch) pair buildModel expects.
func resolveModelArg(model string) (modelPath, arch string, err error) {
	for _, a := range models.Architectures() {
		if a == model {
			return "", model, nil
		}
	}
	if _, statErr := os.Stat(model); statErr != nil {
		return "", "", fmt.Errorf("-model %q is neither a builtin architecture %v nor a readable file",
			model, models.Architectures())
	}
	return model, "", nil
}

// cmdReport replays an HMMS memory plan over one training step and
// renders a self-contained HTML/SVG memory-occupancy-vs-time report,
// one chart per pool:
//
//	splitcnn report -model vgg19 -policy hmms -split -o report.html
//
// Op times come from the analytic cost model by default; -measured
// times each op's real forward kernel via internal/profile and drives
// the identical planner from the measurements. Before writing, the
// command cross-checks the plotted device high-water mark against the
// mem.device_high_water_bytes gauge of the same run — they must be
// equal to the byte.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	model := fs.String("model", "vgg19", "builtin architecture ("+fmt.Sprint(models.Architectures())+") or a model description file")
	policy := fs.String("policy", "hmms", "memory policy: none, layerwise or hmms")
	batch := fs.Int("batch", 64, "batch size")
	doSplit := fs.Bool("split", false, "apply the Split-CNN transformation first")
	depth := fs.Float64("depth", 0.75, "splitting depth (with -split)")
	nh := fs.Int("nh", 2, "patch rows (with -split)")
	nw := fs.Int("nw", 2, "patch cols (with -split)")
	limit := fs.Float64("limit", -1, "offload cap as a fraction of stashed bytes (negative = theoretical limit)")
	measured := fs.Bool("measured", false, "time ops by running their real kernels (internal/profile) instead of the cost model")
	repeats := fs.Int("repeats", 5, "timed executions per op (with -measured; the paper uses 20)")
	widthDiv := fs.Int("widthdiv", 1, "channel width divisor (scale the model down for -measured runs)")
	inputHW := fs.Int("inputhw", 224, "input height/width (scale the model down for -measured runs)")
	out := fs.String("o", "report.html", "report output file")
	metricsOut := fs.String("metrics", "", "also write the run's metrics JSON here")
	trainLog := fs.String("train", "", "render a training report from this steplog JSONL (from `splitcnn train -steplog`) instead of a memory timeline")
	distTrace := fs.String("dist", "", "render a distributed gang timeline from this trace file or router URL (its /tracez) instead of a memory timeline")
	distReq := fs.String("req", "", "request ID to render (with -dist; default: the request with the most spans)")
	dev := deviceFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trainLog != "" {
		return trainReport(*trainLog, *out)
	}
	if *distTrace != "" {
		return distReport(*distTrace, *distReq, *out)
	}
	d, err := pickDevice(*dev)
	if err != nil {
		return err
	}

	modelPath, arch := "", ""
	var m *models.Model
	if *widthDiv > 1 || *inputHW != 224 {
		// Scaled-down builtin (practical for -measured on a CPU).
		m, err = models.Build(*model, models.Config{
			BatchSize: *batch, Classes: 10, InputC: 3,
			InputH: *inputHW, InputW: *inputHW, WidthDiv: *widthDiv,
		})
	} else {
		if modelPath, arch, err = resolveModelArg(*model); err == nil {
			m, err = buildModel(modelPath, arch, *batch)
		}
	}
	if err != nil {
		return err
	}
	g := m.Graph
	title := fmt.Sprintf("%s memory timeline", *model)
	if *doSplit {
		sr, err := core.Split(g, core.Config{Depth: *depth, NH: *nh, NW: *nw})
		if err != nil {
			return err
		}
		g = sr.Graph
		title = fmt.Sprintf("%s (split %dx%d, depth %.0f%%) memory timeline", *model, *nh, *nw, *depth*100)
	}

	var method sim.Method
	switch *policy {
	case "none", "baseline":
		method = sim.MethodNone
	case "layerwise":
		method = sim.MethodLayerWise
	case "hmms":
		method = sim.MethodHMMS
	default:
		return fmt.Errorf("report: unknown policy %q (want none, layerwise or hmms)", *policy)
	}

	var prog *hmms.Program
	if *measured {
		opt := profile.DefaultOptions()
		opt.Repeats = *repeats
		prog, err = profile.BuildProgram(g, d, opt)
	} else {
		prog, err = hmms.BuildProgram(g, d)
	}
	if err != nil {
		return err
	}
	plan, mem, err := sim.PlanFromProgram(prog, method, *limit)
	if err != nil {
		return err
	}
	res, err := sim.Run(prog, plan, mem)
	if err != nil {
		return err
	}

	met := trace.NewMetrics()
	res.RecordMetrics(met)
	mem.RecordMetrics(met)

	data, plotted, err := report.MemoryReport(title, res, prog, mem)
	if err != nil {
		return err
	}
	// Self-verification: the plotted combined device high-water mark and
	// the run's mem.device_high_water_bytes gauge are the same quantity
	// computed two ways; refuse to emit a report that disagrees with its
	// own metrics.
	if gauge := int64(met.Gauge("mem.device_high_water_bytes").Value()); plotted != gauge {
		return fmt.Errorf("report: plotted device high water %d != mem.device_high_water_bytes gauge %d", plotted, gauge)
	}
	if err := report.WriteFile(*out, data); err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := met.WriteFile(*metricsOut); err != nil {
			return err
		}
	}

	timing := "cost model"
	if *measured {
		timing = fmt.Sprintf("measured (%d repeats)", *repeats)
	}
	fmt.Printf("method:      %s (%s timing)\n", res.Method, timing)
	fmt.Printf("step time:   %.2f ms (stall %.2f ms)\n", res.TotalTime*1e3, res.StallTime*1e3)
	fmt.Printf("device peak: %s (plotted == mem.device_high_water_bytes gauge)\n",
		report.HumanBytes(float64(plotted)))
	fmt.Printf("report:      %s (%d charts)\n", *out, len(data.Charts))
	if *metricsOut != "" {
		fmt.Printf("metrics:     %s\n", *metricsOut)
	}
	return nil
}

// trainReport renders the training-run page from a steplog stream:
//
//	splitcnn report -train run.jsonl -o train.html
func trainReport(logPath, out string) error {
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	steps, epochs, err := trace.ReadStepLog(f)
	f.Close()
	if err != nil {
		return err
	}
	data, err := report.TrainReport(fmt.Sprintf("training run · %s", logPath), steps, epochs)
	if err != nil {
		return err
	}
	if err := report.WriteFile(out, data); err != nil {
		return err
	}
	fmt.Printf("steplog:     %s (%d steps, %d epochs)\n", logPath, len(steps), len(epochs))
	fmt.Printf("report:      %s (%d charts)\n", out, len(data.Charts))
	return nil
}

// distReport renders the stitched gang timeline for one distributed
// request from a Chrome trace export — a file written by `-traceout`,
// or a live router's /tracez:
//
//	splitcnn report -dist http://127.0.0.1:8080 -o gang.html
//
// Mirroring the memory reports' plotted-vs-gauge cross-check, the
// command refuses to write a page whose plotted critical path disagrees
// with the measured request span.
func distReport(src, reqID, out string) error {
	var raw []byte
	var err error
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		url := src
		if u, perr := neturl.Parse(src); perr == nil && (u.Path == "" || u.Path == "/") {
			url = strings.TrimSuffix(src, "/") + "/tracez"
		}
		resp, herr := http.Get(url)
		if herr != nil {
			return fmt.Errorf("report: fetching %s: %w", url, herr)
		}
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("report: %s returned status %d", url, resp.StatusCode)
		}
	} else {
		raw, err = os.ReadFile(src)
	}
	if err != nil {
		return err
	}
	var events []trace.Event
	if err := json.Unmarshal(raw, &events); err != nil {
		return fmt.Errorf("report: %s is not a Chrome trace_event export: %w", src, err)
	}

	data, sum, err := report.DistReport(fmt.Sprintf("gang timeline · %s", src), events, reqID)
	if err != nil {
		return err
	}
	// Self-verification: the router lane is a gap-free decomposition of
	// the request span, so the plotted segments must sum to the measured
	// request duration.
	if err := sum.Verify(); err != nil {
		return err
	}
	if err := report.WriteFile(out, data); err != nil {
		return err
	}
	fmt.Printf("request:       %s (%d processes, %d spans)\n", sum.Request, sum.Processes, sum.Spans)
	fmt.Printf("critical path: %s plotted == %s measured\n",
		report.HumanSeconds(sum.PlottedSeconds), report.HumanSeconds(sum.RequestSeconds))
	fmt.Printf("report:        %s\n", out)
	return nil
}
