// Plan-vs-actual calibration: the observability hook that tells us when
// the cost model the planner trusts has drifted from the real CPU
// engine. The trainer's executor hook measures what every op actually
// cost; each op's measured mean is divided by the cost model's
// prediction for it and published per op as calib.* gauges.
package sim

import (
	"fmt"
	"math"

	"splitcnn/internal/costmodel"
	"splitcnn/internal/graph"
	"splitcnn/internal/hmms"
	"splitcnn/internal/trace"
)

// OpSample accumulates the measured wall-clock of one op across a run.
type OpSample struct {
	Seconds float64
	Count   int
}

// Mean returns the average measured duration (0 when empty).
func (s OpSample) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Seconds / float64(s.Count)
}

// Drift is one op's plan-vs-actual comparison.
type Drift struct {
	// Name is the serialized-program op name ("conv1", "conv1.bwd").
	Name string
	// Predicted is the cost model's time; Measured the executor-hook
	// mean; Ratio is Measured / Predicted.
	Predicted, Measured, Ratio float64
}

// DriftReport is the per-layer calibration result.
type DriftReport struct {
	Ops []Drift
	// MaxRatio and GeoMeanRatio summarize the distribution; MaxOp names
	// the worst-drifting op.
	MaxRatio     float64
	MaxOp        string
	GeoMeanRatio float64
}

// DriftFromMeasured compares measured per-op wall-clock times (keyed by
// serialized op name, ".bwd" suffix for backward — exactly the names an
// Executor hook sees) against the cost model's predictions for the same
// graph on dev: each op's ratio is its measured mean over its predicted
// Time. Ops the hook never timed, or that the model prices at zero, are
// skipped.
func DriftFromMeasured(g *graph.Graph, dev costmodel.DeviceSpec, measured map[string]OpSample) (*DriftReport, error) {
	if len(measured) == 0 {
		return nil, fmt.Errorf("sim: no measured op times to calibrate against")
	}
	predicted, err := hmms.BuildProgram(g, dev)
	if err != nil {
		return nil, err
	}
	rep := &DriftReport{}
	var logSum float64
	for i := range predicted.Ops {
		op := &predicted.Ops[i]
		s := measured[op.Name]
		if s.Count == 0 || op.Time <= 0 {
			continue
		}
		d := Drift{Name: op.Name, Predicted: op.Time, Measured: s.Mean()}
		d.Ratio = d.Measured / d.Predicted
		rep.Ops = append(rep.Ops, d)
		logSum += math.Log(d.Ratio)
		if d.Ratio > rep.MaxRatio {
			rep.MaxRatio, rep.MaxOp = d.Ratio, d.Name
		}
	}
	if len(rep.Ops) == 0 {
		return nil, fmt.Errorf("sim: no measured op matched a predicted op")
	}
	rep.GeoMeanRatio = math.Exp(logSum / float64(len(rep.Ops)))
	return rep, nil
}

// RecordMetrics publishes the drift as calib.* gauges: one
// calib.op_drift_ratio.<op> gauge per measured op plus the max/geomean
// summaries — the signals a dashboard alerts on when the planner's cost
// model no longer matches the engine it plans for.
func (r *DriftReport) RecordMetrics(m *trace.Metrics) {
	for _, d := range r.Ops {
		m.Gauge("calib.op_drift_ratio." + d.Name).Set(d.Ratio)
	}
	m.Gauge("calib.op_drift_ratio_max").Set(r.MaxRatio)
	m.Gauge("calib.op_drift_ratio_geomean").Set(r.GeoMeanRatio)
	m.Gauge("calib.ops_measured").Set(float64(len(r.Ops)))
}
