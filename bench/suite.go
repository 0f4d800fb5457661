package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// A suite is every workload in both passes. Each (workload, pass) runs in
// a child process of its own — the runner re-executes itself — so setup_s
// and peak_rss_mib belong to that workload alone.

// suiteRun is one set of results: workload → result, per pass. With
// several runs per workload the end-to-end result is their median and
// Runs keeps each of them.
type suiteRun struct {
	EndToEnd map[string]result   `json:"end_to_end"`
	PerLayer map[string]result   `json:"per_layer"`
	Runs     map[string][]result `json:"end_to_end_runs,omitempty"`
}

// child runs one (workload, pass) in a fresh process and parses the
// result object from the last line of its stdout.
func child(name string, in inputs, traced bool, traceDir string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := 0
	if traced {
		t = 1
	}
	cmd := exec.Command(self,
		"--workload", name, "--seed", strconv.FormatInt(in.seed, 10),
		"--seconds", strconv.FormatFloat(in.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(t), "--tracedir", traceDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): %w", name, t, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s (trace %d): result line %q: %w", name, t, last, err)
	}
	return res, nil
}

// runSets runs n full sets, end-to-end pass first. A set's end-to-end
// pass is reps runs per workload with seeds in.seed, in.seed+1, …, folded
// into their median; its traced pass is one run per workload. The sets are
// interleaved run by run — every run happens once per set back to back,
// the sets taking turns to go first — so that a phase of the box lasting
// minutes falls on all sets alike.
func runSets(n, reps int, in inputs, traceDir string) ([]suiteRun, error) {
	sets := make([]suiteRun, n)
	for i := range sets {
		sets[i] = suiteRun{EndToEnd: map[string]result{}, PerLayer: map[string]result{}, Runs: map[string][]result{}}
	}
	for wi, w := range workloads {
		for rep := 0; rep < reps; rep++ {
			seeded := in
			seeded.seed += int64(rep)
			for k := 0; k < n; k++ {
				set := (wi + rep + k) % n
				res, err := child(w.name, seeded, false, traceDir)
				if err != nil {
					return sets, err
				}
				sets[set].Runs[w.name] = append(sets[set].Runs[w.name], res)
			}
		}
		for set := range sets {
			sets[set].EndToEnd[w.name] = medianResult(sets[set].Runs[w.name])
		}
	}
	for wi, w := range workloads {
		for k := 0; k < n; k++ {
			set := (wi + k) % n
			res, err := child(w.name, in, true, traceDir)
			if err != nil {
				return sets, err
			}
			sets[set].PerLayer[w.name] = res
		}
	}
	return sets, nil
}

// medianResult folds the runs of one cell: counts add up, every metric is
// the median of its values, and the cell is correct if every run was.
func medianResult(runs []result) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	values := map[string][]float64{}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			out.Metrics[name] = m
		}
	}
	for name, v := range values {
		out.Metrics[name] = metricValue{median(v), out.Metrics[name].Unit}
	}
	return out
}

// guard captures the environment before the first workload and refuses a
// box that cannot give the run the cores it is pinned to.
func guard() (env, error) {
	e := captureEnv()
	fmt.Printf("env: %s\n", e)
	if e.NProc < procs {
		return e, fmt.Errorf("this box has %d CPU(s); the benchmark is pinned to GOMAXPROCS=%d and would time-share them", e.NProc, procs)
	}
	if e.Noisy {
		fmt.Printf("NOISY: 1-min load average %.2f > %.1f before the first workload; treat these numbers as a flagged run, not a result\n", e.LoadAvg1, noisyLoad)
	}
	return e, nil
}

func runSuite(in inputs, traceDir string) error {
	if _, err := guard(); err != nil {
		return err
	}
	sets, err := runSets(1, 1, in, traceDir)
	if err != nil {
		return err
	}
	printSet(sets[0])
	return verdict(sets[0])
}

// verdict fails the command when any output check failed.
func verdict(run suiteRun) error {
	for _, pass := range []map[string]result{run.EndToEnd, run.PerLayer} {
		for name, r := range pass {
			if !r.Correct {
				return fmt.Errorf("%s: output check failed (%d of %d ops)", name, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}

func fmtValue(x float64) string {
	switch a := math.Abs(x); {
	case x == math.Trunc(x) && a < 1e15:
		return strconv.FormatFloat(x, 'f', 0, 64)
	case a >= 100:
		return strconv.FormatFloat(x, 'f', 1, 64)
	default:
		return strconv.FormatFloat(x, 'g', 4, 64)
	}
}

// printSet prints every metric by name with its unit: one table per
// pass, one column per workload.
func printSet(run suiteRun) {
	table := func(title string, defs []metricDef, pass map[string]result) {
		fmt.Printf("\n%s\n%-34s %-8s", title, "metric", "unit")
		for _, w := range workloads {
			fmt.Printf(" %14s", w.name)
		}
		fmt.Println()
		for _, m := range defs {
			fmt.Printf("%-34s %-8s", m.name, m.unit)
			for _, w := range workloads {
				fmt.Printf(" %14s", fmtValue(pass[w.name].Metrics[m.name].Value))
			}
			fmt.Println()
		}
		fmt.Printf("%-34s %-8s", "ops sent / failed", "count")
		for _, w := range workloads {
			fmt.Printf(" %14s", fmt.Sprintf("%d/%d", pass[w.name].Attempted, pass[w.name].Failed))
		}
		fmt.Println()
	}
	table("end to end (tracing off)", endToEnd, run.EndToEnd)
	table("per layer (traced run; 0 = layer not on this workload's path)", perLayer, run.PerLayer)
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("%-14s %s, %d image(s)/op: %s\n", w.name, w.loop, w.imagesPerOp, w.why)
	}
}

// aaRuns is how many runs, each with another seed, make one set of -aa:
// the driver's count. aaPath is where -aa writes its report, from the root
// of the checkout.
const (
	aaRuns = 10
	aaPath = "bench/results/aa.json"
)

// aaRow compares one end-to-end metric of one workload across two sets
// of runs of the same code, the way the driver does when it accepts the
// benchmark.
type aaRow struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	// A and B are each set's median over its runs; SpreadA and SpreadB the
	// distance between the set's quartiles as a share of its median.
	A       float64 `json:"a"`
	B       float64 `json:"b"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	// Worse is the share of A by which B is worse (negative: better).
	Worse float64 `json:"b_worse_by"`
	Bound float64 `json:"bound"`
	// Within: B is not worse than A by more than the bound and — except
	// for setup_s, as in the driver — neither spread exceeds it.
	Within bool `json:"within_bound"`
}

// aaReport is what -aa writes: two sets of the same code, every run of
// them, their spreads and difference per end-to-end metric against its
// bound, and whether every per-layer metric that must repeat exactly did.
type aaReport struct {
	Env         env      `json:"env"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	Runs        int      `json:"runs_per_set"`
	When        string   `json:"when"`
	Rows        []aaRow  `json:"rows"`
	ExactDiffer []string `json:"exact_metrics_that_differed"`
	A           suiteRun `json:"a"`
	B           suiteRun `json:"b"`
}

// exactPerLayer are the per-layer metrics that are counts or results of
// deterministic computation: they must repeat bit for bit for one seed.
var exactPerLayer = []string{
	"tensor.conv_flops", "tensor.conv_bytes", "graph.slab_bytes",
	"core.split_nodes", "core.realized_depth",
	"hmms.offload_fraction", "hmms.fragmentation_device_general", "hmms.tso_count",
	"sim.stall_seconds", "sim.degradation", "sim.planned_device_gib", "sim.img_per_s",
	"serve.request_body_bytes",
	"distserve.halo_bytes_per_img", "distserve.shard_input_bytes_max",
}

// compare fills one aaRow from the two sets' runs of a workload.
func compare(w string, m metricDef, a, b []result) aaRow {
	values := func(runs []result) []float64 {
		var v []float64
		for _, r := range runs {
			v = append(v, r.Metrics[m.name].Value)
		}
		return v
	}
	va, vb := values(a), values(b)
	row := aaRow{Workload: w, Metric: m.name, Unit: m.unit, Bound: m.bound,
		A: median(va), B: median(vb), SpreadA: quartileSpread(va), SpreadB: quartileSpread(vb)}
	if row.A != 0 {
		row.Worse = (row.B - row.A) / math.Abs(row.A)
		if m.better == "higher" {
			row.Worse = -row.Worse
		}
	}
	row.Within = row.Worse <= m.bound &&
		(m.name == "setup_s" || math.Max(row.SpreadA, row.SpreadB) <= m.bound)
	return row
}

func runAA(in inputs, traceDir string) error {
	e, err := guard()
	if err != nil {
		return err
	}
	sets, err := runSets(2, aaRuns, in, traceDir)
	if err != nil {
		return err
	}
	a, b := sets[0], sets[1]
	rep := aaReport{Env: e, Seed: in.seed, Seconds: in.seconds, Runs: aaRuns, When: time.Now().UTC().Format(time.RFC3339), A: a, B: b}
	fmt.Printf("\nA/A: two sets of the same code, interleaved run by run; %d runs per workload and set, seeds %d..%d\n", aaRuns, in.seed, in.seed+aaRuns-1)
	fmt.Printf("%-14s %-18s %12s %12s %9s %9s %9s %7s\n",
		"workload", "metric", "median a", "median b", "spread a", "spread b", "b worse", "bound")
	allWithin := true
	for _, w := range workloads {
		for _, m := range endToEnd {
			row := compare(w.name, m, a.Runs[w.name], b.Runs[w.name])
			allWithin = allWithin && row.Within
			rep.Rows = append(rep.Rows, row)
			flag := ""
			if !row.Within {
				flag = "  OUTSIDE BOUND"
			}
			fmt.Printf("%-14s %-18s %12s %12s %8.2f%% %8.2f%% %+8.2f%% %6.0f%%%s\n", w.name, m.name,
				fmtValue(row.A), fmtValue(row.B), 100*row.SpreadA, 100*row.SpreadB, 100*row.Worse, 100*m.bound, flag)
		}
		for _, name := range exactPerLayer {
			if x, y := a.PerLayer[w.name].Metrics[name].Value, b.PerLayer[w.name].Metrics[name].Value; x != y {
				rep.ExactDiffer = append(rep.ExactDiffer, fmt.Sprintf("%s on %s: %v then %v", name, w.name, x, y))
			}
		}
	}
	if len(rep.ExactDiffer) == 0 {
		fmt.Printf("all %d exact per-layer metrics repeated bit for bit on all workloads\n", len(exactPerLayer))
	} else {
		fmt.Println("exact per-layer metrics that differed:", strings.Join(rep.ExactDiffer, "; "))
	}
	js, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(aaPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(aaPath, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", aaPath)
	if err := verdict(a); err != nil {
		return err
	}
	if err := verdict(b); err != nil {
		return err
	}
	if !allWithin || len(rep.ExactDiffer) > 0 {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the benchmark's own bounds")
	}
	return nil
}
