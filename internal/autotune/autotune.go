// Package autotune picks a convolution algorithm per call-site shape by
// measurement instead of heuristics — cuDNN's cudnnFindConvolution*
// idea, but with the result persisted. Four backends compete: direct,
// im2col+GEMM, Winograd F(2x2,3x3), and FFT. At model load or warmup
// (never inline on the serve path) every applicable candidate is
// micro-benchmarked on the real tensors' shapes; the winner is cached
// under (ConvParams, input shape, batch, GOMAXPROCS, CPU features) and
// optionally written to disk (~/.cache/splitcnn/autotune.json), so
// restarts skip re-tuning. Measured times feed
// costmodel.MeasuredOverride, replacing the planner's roofline guesses
// with profiled numbers — §4.3 of the paper, closing the loop the
// -calibrate drift gauges opened.
//
// Contract with the rest of the system:
//
//   - With no plan for a key, Choose returns im2col — the implicit-GEMM
//     kernel, whose bits are the same at every batch size and shard
//     cut. Winograd, FFT and direct run only where a tuned plan picks
//     them.
//   - Choose never panics and never allocates: a corrupt or stale plan
//     (wrong geometry for Winograd, stride for FFT) is sanitized back
//     to the default. The panic stays in tensor.Conv2DWinogradInto for
//     direct misuse only.
//   - Tuning is explicit (Tune/TuneGraph) and singleflighted, so
//     concurrent warmups of the same model measure each site once.
package autotune

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"splitcnn/internal/costmodel"
	"splitcnn/internal/graph"
	"splitcnn/internal/tensor"
)

// Algo enumerates the convolution backends.
type Algo uint8

// The candidate algorithms. Im2col is the zero value: the universally
// applicable baseline. NumAlgos bounds iteration over the candidates
// (Algo(0) ..< NumAlgos).
const (
	Im2col Algo = iota
	Winograd
	Direct
	FFT
	NumAlgos
)

var algoNames = [NumAlgos]string{"im2col", "winograd", "direct", "fft"}

// String names the algorithm (the identifier used in the cache file).
func (a Algo) String() string {
	if int(a) < len(algoNames) {
		return algoNames[a]
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// ParseAlgo inverts String. Unknown names report ok=false — how stale
// cache entries from a newer/older format are silently dropped.
func ParseAlgo(s string) (Algo, bool) {
	for i, n := range algoNames {
		if n == s {
			return Algo(i), true
		}
	}
	return 0, false
}

// Key identifies a tuning unit: the full convolution signature
// including batch. The environment half of the cache key (GOMAXPROCS,
// CPU feature string) partitions the persisted cache file instead — a
// process only ever holds plans for its own environment.
type Key = costmodel.ConvSignature

// KeyOf builds the plan key for one call site.
func KeyOf(p tensor.ConvParams, x tensor.Shape, cout int) Key {
	return costmodel.SignatureOf(p, x, cout)
}

// paramsOf and shapeOf invert KeyOf — needed to re-validate reloaded
// cache entries against Applicable before they may dispatch anything.
func paramsOf(k Key) tensor.ConvParams {
	return tensor.ConvParams{KH: k.KH, KW: k.KW, SH: k.SH, SW: k.SW,
		Pad: tensor.Pad2D{Top: k.PadT, Bottom: k.PadB, Left: k.PadL, Right: k.PadR}}
}

func shapeOf(k Key) tensor.Shape { return tensor.Shape{k.N, k.C, k.H, k.W} }

// Decision is a tuned plan: the winning algorithm and every measured
// candidate's best forward time (seconds), kept so the cost-model
// override can be rebuilt from a reloaded cache without re-running.
type Decision struct {
	Algo    Algo
	Seconds map[Algo]float64
}

// DefaultAlgo is the untuned algorithm: im2col for every geometry.
// Choose falls back to it whenever no (valid) plan exists. The kernel
// is an implicit GEMM that builds no column matrix, and its bits depend
// on the reduction length only, so untuned batch prefixes, coalesced
// batches and shard bands are bit-identical to the full computation.
func DefaultAlgo(tensor.ConvParams) Algo { return Im2col }

// fftWorkspaceCap bounds the FFT backend's scratch footprint, mirroring
// nn.MaxConvWorkspaceBytes (the cuDNN-style per-algorithm workspace
// limit): layers whose spectra would exceed it are not FFT candidates.
const fftWorkspaceCap = 1 << 30

// measureBudgetSeconds caps the timed work spent on any one candidate
// during tuning (warmups excluded; at least one timed run always
// happens). Fast kernels use their full trial count, slow ones exit
// after a single sample.
const measureBudgetSeconds = 0.25

// directFLOPCap prunes the naive direct loop from the candidate set on
// large problems: 1x1 convolutions always stay (they run through the
// blocked GEMM), but benchmarking an unvectorized loop nest against
// GEMM on a 100+ MFLOP layer only burns the tuning budget.
const directFLOPCap = 200e6

// Applicable reports whether algo can run the geometry at all. It is
// the sanitization gate between cached plans and kernel dispatch: a
// plan that fails it is ignored, never executed.
func Applicable(a Algo, p tensor.ConvParams, x tensor.Shape, cout int) bool {
	switch a {
	case Im2col, Direct:
		return true
	case Winograd:
		return tensor.WinogradApplies(p)
	case FFT:
		return tensor.FFTConvApplies(p) && tensor.FFTConvWorkspaceBytes(x, cout, p) <= fftWorkspaceCap
	}
	return false
}

func convFLOPs(p tensor.ConvParams, x tensor.Shape, cout int) float64 {
	oh, ow := p.OutSize(x.H(), x.W())
	return 2 * float64(x.N()) * float64(cout) * float64(oh) * float64(ow) *
		float64(x.C()) * float64(p.KH) * float64(p.KW)
}

// Candidates returns the algorithms worth measuring for the geometry:
// every applicable backend, with the naive direct loop pruned on
// problems large enough that it cannot win.
func Candidates(p tensor.ConvParams, x tensor.Shape, cout int) []Algo {
	out := make([]Algo, 0, NumAlgos)
	for a := Algo(0); a < NumAlgos; a++ {
		if !Applicable(a, p, x, cout) {
			continue
		}
		if a == Direct && !(p.KH == 1 && p.KW == 1) && convFLOPs(p, x, cout) > directFLOPCap {
			continue
		}
		out = append(out, a)
	}
	return out
}

// Tuner holds tuned plans and runs the micro-benchmarks. The zero
// Tuner is not usable; call New. A nil *Tuner is valid for Choose/Plan
// (always default).
type Tuner struct {
	mu       sync.RWMutex
	plans    map[Key]Decision
	inflight map[Key]chan struct{}

	// Trials is the number of timed repetitions per candidate (after
	// two untimed warmup runs); the minimum is kept. 0 means 6 — enough
	// iterations for pool- and arena-backed kernels to reach their
	// steady-state speed, which is what serving actually sees.
	Trials int

	// Overrides, when non-nil, receives every winning measurement —
	// the feed into the HMMS planner and simulator.
	Overrides *costmodel.MeasuredOverride

	path  string                  // cache file; "" = not persisted
	other map[string][]cachedPlan // foreign-env sections, preserved on Save
	dirty bool
}

// Default is the process-wide tuner the nn.Conv dispatch consults. It
// starts empty (pure default behavior); serve warmup, `splitcnn tune`,
// and train -tune populate it.
var Default = New()

// New returns an empty tuner.
func New() *Tuner {
	return &Tuner{
		plans:     make(map[Key]Decision),
		inflight:  make(map[Key]chan struct{}),
		Overrides: costmodel.NewMeasuredOverride(),
	}
}

// Choose returns the algorithm to run for one forward call. This is
// the dispatch hot path: one read-locked map lookup, no allocation, no
// panic — an invalid plan (corrupt cache, geometry drift) silently
// degrades to the default heuristic.
func (t *Tuner) Choose(p tensor.ConvParams, x tensor.Shape, cout int) Algo {
	if a, ok := t.Plan(p, x, cout); ok {
		return a
	}
	return DefaultAlgo(p)
}

// Plan returns the tuned algorithm for the key, if a valid one exists.
func (t *Tuner) Plan(p tensor.ConvParams, x tensor.Shape, cout int) (Algo, bool) {
	if t == nil {
		return 0, false
	}
	k := KeyOf(p, x, cout)
	t.mu.RLock()
	d, ok := t.plans[k]
	t.mu.RUnlock()
	if !ok || !Applicable(d.Algo, p, x, cout) {
		return 0, false
	}
	return d.Algo, true
}

// SetPlan force-installs a plan (tests and cache loading).
func (t *Tuner) SetPlan(k Key, d Decision) {
	t.mu.Lock()
	t.plans[k] = d
	t.dirty = true
	t.mu.Unlock()
	if s := d.Seconds[d.Algo]; s > 0 {
		t.Overrides.Set(k, s)
	}
}

// Reset drops every plan (tests).
func (t *Tuner) Reset() {
	t.mu.Lock()
	t.plans = make(map[Key]Decision)
	t.Overrides = costmodel.NewMeasuredOverride()
	t.dirty = false
	t.mu.Unlock()
}

// Len returns the number of tuned plans.
func (t *Tuner) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.plans)
}

// Tune measures every candidate for the site and installs the winner,
// returning the decision. Concurrent calls for the same key are
// singleflighted: one measures, the rest wait and reuse the plan.
func (t *Tuner) Tune(p tensor.ConvParams, x tensor.Shape, cout int) Decision {
	k := KeyOf(p, x, cout)
	for {
		t.mu.Lock()
		if d, ok := t.plans[k]; ok {
			t.mu.Unlock()
			return d
		}
		if ch, ok := t.inflight[k]; ok {
			t.mu.Unlock()
			<-ch
			continue // plan is installed now (or the measurer died; retry)
		}
		ch := make(chan struct{})
		t.inflight[k] = ch
		t.mu.Unlock()

		d := t.measure(p, x, cout)
		t.SetPlan(k, d)
		t.mu.Lock()
		delete(t.inflight, k)
		t.mu.Unlock()
		close(ch)
		return d
	}
}

// measure micro-benchmarks every candidate on synthetic tensors of the
// site's exact shapes and returns the winning decision.
func (t *Tuner) measure(p tensor.ConvParams, x tensor.Shape, cout int) Decision {
	trials := t.Trials
	if trials <= 0 {
		trials = 6
	}
	rng := rand.New(rand.NewSource(0x5eed))
	in := tensor.New(x...)
	w := tensor.New(cout, x.C(), p.KH, p.KW)
	bias := tensor.New(cout)
	in.RandNormal(rng, 1)
	w.RandNormal(rng, 0.1)
	bias.RandNormal(rng, 0.1)
	oh, ow := p.OutSize(x.H(), x.W())
	dst := tensor.New(x.N(), cout, oh, ow)
	a := tensor.NewArena()

	d := Decision{Algo: DefaultAlgo(p), Seconds: make(map[Algo]float64)}
	best := -1.0
	for _, algo := range Candidates(p, x, cout) {
		run := runner(algo)
		// Two warmups: the first pays one-time costs (scratch pools,
		// twiddle plans, page faults), the second settles the caches.
		run(a, dst, in, w, bias, p)
		run(a, dst, in, w, bias, p)
		// Up to trials timed runs within a fixed per-candidate budget:
		// a fast kernel gets every repetition (precision where the
		// ranking is close), a slow one is cut off after one timed run
		// — it has already lost, more samples cannot help it.
		secs, spent := -1.0, 0.0
		for i := 0; i < trials && (i == 0 || spent < measureBudgetSeconds); i++ {
			start := time.Now()
			run(a, dst, in, w, bias, p)
			s := time.Since(start).Seconds()
			spent += s
			if secs < 0 || s < secs {
				secs = s
			}
		}
		d.Seconds[algo] = secs
		if best < 0 || secs < best {
			best, d.Algo = secs, algo
		}
	}
	return d
}

// runner returns the Into-style kernel entry for algo.
func runner(a Algo) func(ar *tensor.Arena, dst, x, w, bias *tensor.Tensor, p tensor.ConvParams) {
	switch a {
	case Winograd:
		return func(_ *tensor.Arena, dst, x, w, bias *tensor.Tensor, p tensor.ConvParams) {
			tensor.Conv2DWinogradInto(dst, x, w, bias, p)
		}
	case Direct:
		return func(_ *tensor.Arena, dst, x, w, bias *tensor.Tensor, p tensor.ConvParams) {
			tensor.Conv2DDirectInto(dst, x, w, bias, p)
		}
	case FFT:
		return func(_ *tensor.Arena, dst, x, w, bias *tensor.Tensor, p tensor.ConvParams) {
			tensor.Conv2DFFTInto(dst, x, w, bias, p)
		}
	default:
		return func(ar *tensor.Arena, dst, x, w, bias *tensor.Tensor, p tensor.ConvParams) {
			tensor.Conv2DInto(ar, dst, x, w, bias, p)
		}
	}
}

// Site is one distinct convolution call site of a graph.
type Site struct {
	Name   string
	Params tensor.ConvParams
	In     tensor.Shape
	Cout   int
}

// Key returns the site's plan key.
func (s Site) Key() Key { return KeyOf(s.Params, s.In, s.Cout) }

// Sites extracts the convolution sites of a graph in topological
// order, deduplicated by key (split graphs repeat one geometry across
// patches; it is tuned once).
func Sites(g *graph.Graph) []Site {
	seen := make(map[Key]bool)
	var out []Site
	for _, n := range g.OpNodes() {
		if n.Op.Kind() != "conv" || len(n.Inputs) == 0 {
			continue
		}
		c, ok := n.Op.(interface{ Window() tensor.ConvParams })
		if !ok {
			continue
		}
		s := Site{Name: n.Name, Params: c.Window(), In: n.Inputs[0].Shape.Clone(), Cout: n.Shape.C()}
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// Result pairs a site with its (possibly pre-existing) decision.
type Result struct {
	Site     Site
	Decision Decision
	Cached   bool // plan existed before this call (cache hit)
}

// TuneGraph tunes every distinct convolution site of g and returns the
// per-site results in graph order.
func (t *Tuner) TuneGraph(g *graph.Graph) []Result {
	sites := Sites(g)
	out := make([]Result, 0, len(sites))
	for _, s := range sites {
		k := s.Key()
		t.mu.RLock()
		_, cached := t.plans[k]
		t.mu.RUnlock()
		d := t.Tune(s.Params, s.In, s.Cout)
		out = append(out, Result{Site: s, Decision: d, Cached: cached})
	}
	return out
}
