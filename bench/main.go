// Command bench is the repository's benchmark: five named workloads
// measured end to end with tracing off, and again in a traced run that
// wraps the calls into each layer in spans to produce per-layer numbers.
// It drives the program only through public functions of internal/*.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON result line
//	bench [-seed N] [-seconds S]                             all workloads, both passes, as a table
//	bench -aa                                                two sets of ten runs per workload, against the bounds
//	bench -smoke                                             tiny run of everything (used by go test)
//
// See README.md for what each name means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to: the box this
// benchmark was sized on has two cores, and a number measured at one
// setting says little about another.
const procs = 2

// A run sets the program up at least minSetups times, and — while set-up
// is cheap — more, up to maxSetups or setupBudget of total set-up time;
// setup_s is the median, so one slow page-in does not decide it.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// runSeconds is how long the driver lets one run measure (run_seconds in
// BENCHMARK.json): with 114 runs in 3420 s, 20 s of measuring leaves each
// run about 9 s for its build check, input generation and set-ups, of
// which it uses 2 to 4.
const runSeconds = 20

// inputs is what a workload is generated from.
type inputs struct {
	seed    int64
	seconds float64
}

func (in inputs) duration() time.Duration { return time.Duration(in.seconds * float64(time.Second)) }

// session is one workload in this process.
type session interface {
	// setup builds the program under test and warms it up (timed as
	// setup_s); teardown releases it so setup can run again.
	setup() error
	teardown()
	// measure drives the workload for about d with tracing off.
	measure(d time.Duration) (opStats, error)
	// layers is the traced run: it drives the workload for part of d
	// with spans recorded, spends the rest on probes around each layer's
	// public calls, and returns per-layer values by name.
	layers(d time.Duration, rec *recorder) (map[string]float64, opStats, error)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(procs)
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print one JSON result line")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced   = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics with tracing off")
		traceDir = flag.String("tracedir", filepath.Join(".bench_build", "trace"), "where traced runs dump Chrome trace_event JSON")
		aa       = flag.Bool("aa", false, "run two sets of ten runs per workload on this checkout, compare their spreads and medians against the bounds, and write "+aaPath)
		smoke    = flag.Bool("smoke", false, "tiny run of all workloads, both passes")
	)
	flag.Parse()
	in := inputs{seed: *seed, seconds: *seconds}
	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, in, *traced == 1, *traceDir)
	case *aa:
		err = runAA(in, *traceDir)
	default:
		if *smoke {
			in.seconds = 0.4
		}
		err = runSuite(in, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: one workload, one pass, in this
// process; human-readable notes go to stderr and the result object is
// the last line of stdout. A wrong output makes "correct" false; only a
// run that could not be carried out at all exits non-zero.
func runOne(name string, in inputs, traced bool, traceDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if in.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	env := captureEnv()
	fmt.Fprintf(os.Stderr, "env: %s\n", env)
	res, err := runWorkload(w, in, traced, traceDir)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func runWorkload(w *workloadDef, in inputs, traced bool, traceDir string) (result, error) {
	s, err := w.open(in)
	if err != nil {
		return result{}, fmt.Errorf("%s: generate inputs: %w", w.name, err)
	}
	t0 := time.Now()
	if err := s.setup(); err != nil {
		return result{}, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	setups := []float64{time.Since(t0).Seconds()}
	setupSpent := time.Since(t0)

	var (
		values   map[string]float64
		st       opStats
		checkErr error
		defs     = endToEnd
	)
	if traced {
		defs = perLayer
		rec := newRecorder()
		values, st, checkErr = s.layers(in.duration(), rec)
		s.teardown()
		spans := rec.snapshot()
		path := filepath.Join(traceDir, w.name+".trace.json")
		if err := writeChrome(path, spans); err != nil {
			return result{}, fmt.Errorf("%s: trace dump: %w", w.name, err)
		}
		fmt.Fprintf(os.Stderr, "%s traced: %d spans -> %s\n", w.name, len(spans), path)
		if values == nil {
			values = map[string]float64{}
		}
		values["bench.fail_ratio"] = st.failRatio()
	} else {
		st, checkErr = s.measure(in.duration())
		rss := peakRSSMiB()
		s.teardown()
		// The remaining set-ups run after the timed window so their
		// garbage is not in peak_rss_mib.
		for len(setups) < minSetups || (len(setups) < maxSetups && setupSpent < setupBudget) {
			runtime.GC()
			t0 := time.Now()
			if err := s.setup(); err != nil {
				return result{}, fmt.Errorf("%s: setup: %w", w.name, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			setupSpent += time.Since(t0)
			s.teardown()
		}
		n := len(st.lat)
		fmt.Fprintf(os.Stderr, "%s: sent %d ok %d failed %d (refused %d) in %.2fs; %d latency samples, p95 has %d beyond it (highest supported percentile: p%d); %d image(s)/op; %d set-ups\n",
			w.name, st.attempted, st.ok(), st.failed, st.refused, st.wall.Seconds(),
			n, beyond(n, 95), supportedPercentile(n), w.imagesPerOp, len(setups))
		asc := sorted(st.lat)
		values = map[string]float64{
			"setup_s":          median(setups),
			"throughput_ops_s": st.throughput(),
			"op_p50_ms":        percentile(asc, 50),
			"op_p95_ms":        percentile(asc, 95),
			"peak_rss_mib":     rss,
		}
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "%s: output check failed: %v\n", w.name, checkErr)
	}
	res := result{
		Correct:   checkErr == nil && st.failed == 0,
		Attempted: max(st.attempted, 1),
		Failed:    st.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
	}
	return res, nil
}
