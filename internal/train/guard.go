package train

import (
	"fmt"
	"math"

	"splitcnn/internal/graph"
	"splitcnn/internal/trace"
)

// GuardConfig arms the trainer's anomaly guards: NaN/Inf detection on
// loss, gradients and (sampled) op outputs, plus a gradient-explosion
// threshold. When a guard fires, the run halts with a *GuardError and —
// if FlightPath is set — dumps the flight recorder's ring of recent
// step records and op spans, so a diverged run leaves a post-mortem
// artifact instead of a flat "loss=NaN" line.
type GuardConfig struct {
	// Enabled arms the guards; the zero value trains unguarded.
	Enabled bool
	// MaxGradNorm trips the explosion guard when the global gradient L2
	// norm exceeds it (0 selects 1e6 — far above any healthy run, so it
	// only fires on genuine divergence).
	MaxGradNorm float64
	// SampleStride is the element stride of the per-op output scan run
	// inside the executor hook (0 selects 64; 1 scans every element).
	// NaNs saturate whole tensors within an op or two, so a sparse scan
	// catches them at a small fraction of a full pass; the full scan
	// happens once, on the trip.
	SampleStride int
	// FlightPath, when set, receives the flight-recorder dump (JSON) the
	// moment a guard fires. The recorder keeps the trace package's
	// default rings: 64 steps, 1024 op spans.
	FlightPath string
}

// GuardError reports a tripped training guard. The Guard field names
// which one fired; Op attributes the first non-finite op output when
// the trip came from the executor-hook scan.
type GuardError struct {
	// Guard is one of "activation_nonfinite", "loss_nonfinite",
	// "grad_nonfinite", "grad_explosion".
	Guard string
	// Op is the serialized op name whose output first scanned
	// non-finite ("conv1", "conv1.bwd"); empty for unattributed trips.
	Op string
	// Step is the global step the guard fired on; Value the offending
	// quantity (the loss or gradient norm).
	Step  int
	Value float64
	// DumpPath is where the flight recorder dump landed ("" if none was
	// configured).
	DumpPath string
}

func (e *GuardError) Error() string {
	msg := fmt.Sprintf("train: guard %s tripped at step %d (value %g)", e.Guard, e.Step, e.Value)
	if e.Op != "" {
		msg += fmt.Sprintf(", first non-finite output at op %q", e.Op)
	}
	if e.DumpPath != "" {
		msg += ", flight dump: " + e.DumpPath
	}
	return msg
}

// guardState is the per-run guard machinery. The trainer is
// single-goroutine (hook and step loop run on the same goroutine), so
// plain fields suffice.
type guardState struct {
	cfg    GuardConfig
	flight *trace.FlightRecorder
	stride int
	maxG   float64
	met    *trace.Metrics
	// tripOp records the first op whose sampled output scan found a
	// non-finite value during the current step.
	tripOp string
}

func newGuardState(cfg GuardConfig, met *trace.Metrics) *guardState {
	g := &guardState{
		cfg:    cfg,
		flight: trace.NewFlightRecorder(0, 0),
		stride: cfg.SampleStride,
		maxG:   cfg.MaxGradNorm,
		met:    met,
	}
	if g.stride <= 0 {
		g.stride = 64
	}
	if g.maxG <= 0 {
		g.maxG = 1e6
	}
	return g
}

// scan is the cheap per-op probe the executor hook runs.
func (g *guardState) scan(name string, ev graph.OpEvent) {
	if g.tripOp == "" && ev.Output != nil && ev.Output.HasNonFinite(g.stride) {
		g.tripOp = name
	}
}

// check runs the post-step guards and returns a *GuardError when one
// fires. The op-attributed activation guard wins over the aggregate
// ones — it points closest to the root cause.
func (g *guardState) check(step int, loss, gradNorm float64, store *graph.ParamStore) error {
	switch {
	case g.tripOp != "":
		return g.trip("activation_nonfinite", g.tripOp, step, loss, store)
	case math.IsNaN(loss) || math.IsInf(loss, 0):
		return g.trip("loss_nonfinite", "", step, loss, store)
	case math.IsNaN(gradNorm) || math.IsInf(gradNorm, 0):
		return g.trip("grad_nonfinite", "", step, gradNorm, store)
	case gradNorm > g.maxG:
		return g.trip("grad_explosion", "", step, gradNorm, store)
	}
	return nil
}

// trip assembles the post-mortem: the ring dump, a full-scan census of
// every parameter's value and gradient (the cheap sampled scans are
// upgraded to exact counts exactly once, here), the dump file, and the
// GuardError the run exits with.
func (g *guardState) trip(guard, op string, step int, value float64, store *graph.ParamStore) error {
	if g.met != nil {
		g.met.Counter("train.guard_trips").Add(1)
	}
	ge := &GuardError{Guard: guard, Op: op, Step: step, Value: value}
	d := g.flight.Dump()
	d.Guard, d.TripOp, d.TripStep = guard, op, step
	if !math.IsNaN(value) && !math.IsInf(value, 0) {
		d.Value = value
	}
	for _, p := range store.All() {
		nv, ng := p.Value.CountNonFinite(), p.Grad.CountNonFinite()
		if nv > 0 || ng > 0 {
			d.Tensors = append(d.Tensors, trace.TensorHealth{
				Name: p.Name, NonFiniteValues: nv, NonFiniteGrads: ng, Elems: p.Value.Elems(),
			})
		}
	}
	if g.cfg.FlightPath != "" {
		if err := d.WriteFile(g.cfg.FlightPath); err != nil {
			// The guard verdict matters more than the dump; report the
			// trip and fold the write failure into the message.
			ge.DumpPath = ""
			return fmt.Errorf("%w (flight dump failed: %v)", ge, err)
		}
		ge.DumpPath = g.cfg.FlightPath
	}
	return ge
}
