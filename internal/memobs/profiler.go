package memobs

import (
	"bytes"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"splitcnn/internal/graph"
	"splitcnn/internal/trace"
)

// cpuProfileMu serializes CPU capture windows process-wide: the Go
// runtime supports one CPU profile at a time, and a loopback fleet
// (`router -spawn`, the memory smoke) runs several routers/workers/
// servers — each with its own Profiler — in one process. A profiler that loses the race skips its
// window (counted, not queued) rather than blocking its loop.
var cpuProfileMu sync.Mutex

// ProfilerOptions configures the continuous profiler.
type ProfilerOptions struct {
	// Window is the CPU capture window length (default 1s).
	Window time.Duration
	// Every is the period between window starts (default 15s). The duty
	// cycle Window/Every bounds steady-state overhead: the defaults
	// profile ~6.7% of wall time at ~1-3% capture cost, well under the
	// 3% end-to-end budget.
	Every time.Duration
	// Metrics receives profilez.* instruments (nil = none).
	Metrics *trace.Metrics
}

// topFuncs caps the per-function tables.
const topFuncs = 30

// OpCost is one graph op's attributed cost within a profile window.
type OpCost struct {
	Op         string  `json:"op"`
	CPUSeconds float64 `json:"cpu_seconds"`
	Share      float64 `json:"share"` // of the window's sampled CPU
	AllocBytes int64   `json:"alloc_bytes"`
	InUseBytes int64   `json:"inuse_bytes"`
}

// FuncCost is one function's flat (self) cost.
type FuncCost struct {
	Name       string  `json:"name"`
	CPUSeconds float64 `json:"cpu_seconds"`
	AllocBytes int64   `json:"alloc_bytes"`
	InUseBytes int64   `json:"inuse_bytes"`
}

// Report is the aggregation of one profile window: flat per-function
// self cost from the CPU and heap profiles, joined against op spans
// (via pprof "op" labels the executors emit during the window) into
// per-op CPU/alloc attribution.
type Report struct {
	WindowSeconds float64    `json:"window_seconds"`
	CPUSeconds    float64    `json:"cpu_seconds"`
	Ops           []OpCost   `json:"ops"`
	Funcs         []FuncCost `json:"funcs"`
	// CPUProfile is the window's raw pprof protobuf (gzipped), served
	// by /profilez?download=cpu.
	CPUProfile []byte `json:"-"`
}

// Profiler takes windowed in-process pprof CPU+heap profiles on a duty
// cycle and keeps the latest aggregated Report.
type Profiler struct {
	opts ProfilerOptions

	mu  sync.Mutex
	rep *Report

	stop chan struct{}
	done chan struct{}
}

// StartProfiler launches the capture loop. The first window starts
// immediately; subsequent windows start every opts.Every.
func StartProfiler(opts ProfilerOptions) *Profiler {
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if opts.Every <= 0 {
		opts.Every = 15 * time.Second
	}
	if opts.Every < opts.Window {
		opts.Every = opts.Window
	}
	p := &Profiler{opts: opts, stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop()
	return p
}

// Stop terminates the capture loop and waits for it. Safe to call on a
// nil profiler and more than once.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// Report returns the latest window's aggregation (nil until the first
// window completes).
func (p *Profiler) Report() *Report {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rep
}

func (p *Profiler) loop() {
	defer close(p.done)
	t := time.NewTicker(p.opts.Every)
	defer t.Stop()
	p.capture()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.capture()
		}
	}
}

func (p *Profiler) capture() {
	met := p.opts.Metrics
	if !cpuProfileMu.TryLock() {
		if met != nil {
			met.Counter("profilez.skipped_windows").Add(1)
		}
		return
	}
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		cpuProfileMu.Unlock()
		if met != nil {
			met.Counter("profilez.skipped_windows").Add(1)
		}
		return
	}
	graph.EnableOpLabels(true)
	select {
	case <-time.After(p.opts.Window):
	case <-p.stop:
	}
	graph.EnableOpLabels(false)
	pprof.StopCPUProfile()
	cpuProfileMu.Unlock()

	var heapBuf bytes.Buffer
	if hp := pprof.Lookup("heap"); hp != nil {
		hp.WriteTo(&heapBuf, 0) //nolint:errcheck — best effort
	}
	rep, err := buildReport(cpuBuf.Bytes(), heapBuf.Bytes(), p.opts.Window, topFuncs)
	if err != nil {
		if met != nil {
			met.Counter("profilez.parse_errors").Add(1)
		}
		return
	}
	p.mu.Lock()
	p.rep = rep
	p.mu.Unlock()
	if met != nil {
		met.Counter("profilez.windows").Add(1)
		met.Gauge("profilez.cpu_seconds").Set(rep.CPUSeconds)
		met.Gauge("profilez.ops").Set(float64(len(rep.Ops)))
	}
}

// buildReport aggregates one window: flat self cost per function from
// both profiles, per-op CPU from sample labels, and per-op alloc by
// assigning each leaf function to the op that dominated its labeled CPU
// samples (heap samples carry no labels, so the CPU-side join supplies
// the function→op mapping).
func buildReport(cpuProf, heapProf []byte, window time.Duration, topN int) (*Report, error) {
	cpu, err := parsePprof(cpuProf)
	if err != nil {
		return nil, err
	}
	rep := &Report{WindowSeconds: window.Seconds(), CPUProfile: cpuProf}

	cpuIdx := cpu.typeIndex("cpu")
	opCPU := map[string]float64{}
	funcCPU := map[string]float64{}
	funcOpW := map[string]map[string]float64{} // func -> op -> weight
	for _, s := range cpu.samples {
		if cpuIdx < 0 || cpuIdx >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		sec := float64(s.values[cpuIdx]) / 1e9
		fn := cpu.leafFunc[s.locs[0]]
		if fn == "" {
			fn = "(unknown)"
		}
		rep.CPUSeconds += sec
		funcCPU[fn] += sec
		op := s.labels["op"]
		if op == "" {
			op = "(unattributed)"
		}
		opCPU[op] += sec
		w := funcOpW[fn]
		if w == nil {
			w = map[string]float64{}
			funcOpW[fn] = w
		}
		w[op] += sec
	}

	funcAlloc := map[string]int64{}
	funcInuse := map[string]int64{}
	if heap, err := parsePprof(heapProf); err == nil {
		allocIdx := heap.typeIndex("alloc_space")
		inuseIdx := heap.typeIndex("inuse_space")
		for _, s := range heap.samples {
			if len(s.locs) == 0 {
				continue
			}
			fn := heap.leafFunc[s.locs[0]]
			if fn == "" {
				fn = "(unknown)"
			}
			if allocIdx >= 0 && allocIdx < len(s.values) {
				funcAlloc[fn] += s.values[allocIdx]
			}
			if inuseIdx >= 0 && inuseIdx < len(s.values) {
				funcInuse[fn] += s.values[inuseIdx]
			}
		}
	}

	// Function → op assignment by dominant labeled CPU weight.
	funcOp := map[string]string{}
	for fn, w := range funcOpW {
		best, bw := "(unattributed)", 0.0
		for op, x := range w {
			if x > bw {
				best, bw = op, x
			}
		}
		funcOp[fn] = best
	}
	opAlloc := map[string]int64{}
	opInuse := map[string]int64{}
	for fn, b := range funcAlloc {
		op := funcOp[fn]
		if op == "" {
			op = "(unattributed)"
		}
		opAlloc[op] += b
	}
	for fn, b := range funcInuse {
		op := funcOp[fn]
		if op == "" {
			op = "(unattributed)"
		}
		opInuse[op] += b
	}

	for op, sec := range opCPU {
		share := 0.0
		if rep.CPUSeconds > 0 {
			share = sec / rep.CPUSeconds
		}
		rep.Ops = append(rep.Ops, OpCost{
			Op: op, CPUSeconds: sec, Share: share,
			AllocBytes: opAlloc[op], InUseBytes: opInuse[op],
		})
	}
	for op, b := range opAlloc {
		if _, ok := opCPU[op]; !ok {
			rep.Ops = append(rep.Ops, OpCost{Op: op, AllocBytes: b, InUseBytes: opInuse[op]})
		}
	}
	sort.Slice(rep.Ops, func(i, j int) bool { return rep.Ops[i].CPUSeconds > rep.Ops[j].CPUSeconds })

	names := map[string]bool{}
	for fn := range funcCPU {
		names[fn] = true
	}
	for fn := range funcAlloc {
		names[fn] = true
	}
	for fn := range names {
		rep.Funcs = append(rep.Funcs, FuncCost{
			Name: fn, CPUSeconds: funcCPU[fn],
			AllocBytes: funcAlloc[fn], InUseBytes: funcInuse[fn],
		})
	}
	sort.Slice(rep.Funcs, func(i, j int) bool {
		if rep.Funcs[i].CPUSeconds != rep.Funcs[j].CPUSeconds {
			return rep.Funcs[i].CPUSeconds > rep.Funcs[j].CPUSeconds
		}
		return rep.Funcs[i].AllocBytes > rep.Funcs[j].AllocBytes
	})
	if len(rep.Funcs) > topN {
		rep.Funcs = rep.Funcs[:topN]
	}
	return rep, nil
}
