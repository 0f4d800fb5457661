// Package memobs is the measured-memory observability plane: it turns
// the planned byte counts the compiler and HMMS planner emit into
// *measured* runtime series, attributes footprint to ops and requests,
// and runs an in-process continuous profiler whose windows join pprof
// samples against graph op spans.
//
// Everything the repo reported about memory before this package was a
// plan — slab sizes, HMMS peaks, first-fit offsets. memobs closes the
// loop: a compiled-program hook snapshots the scratch arena and the
// slab windows each op actually touches, producing a MemTimeline that
// is directly comparable, step by step, against the static plan. The
// drift gauges are the bytes analogue of the calibration op-time drift
// ratios: measured footprint over planned live bytes, per op.
package memobs

import (
	"fmt"
	"math"

	"splitcnn/internal/trace"
)

// MemSample is one op step's measured memory state.
type MemSample struct {
	Step int    `json:"step"`
	Name string `json:"name"`
	Kind string `json:"kind"`
	// MeasuredBytes is the step's measured activation footprint: slab
	// bytes the kernel referenced plus scratch arena in-use.
	MeasuredBytes int64 `json:"measured_bytes"`
	// PlannedBytes is the static plan's live bytes at this step — the
	// sum of storage windows whose lifetime covers it.
	PlannedBytes int64 `json:"planned_bytes"`
	// SlabRefBytes is the slab footprint the kernel call referenced.
	SlabRefBytes int64 `json:"slab_ref_bytes"`
	// ScratchBytes is the arena in-use bytes observed after the step.
	ScratchBytes int64 `json:"scratch_bytes"`
	// WrittenBytes is the high-water extent of slab windows written so
	// far in the pass.
	WrittenBytes int64 `json:"written_bytes"`
}

// MemTimeline is one measured forward pass plus lifetime aggregates.
type MemTimeline struct {
	// Source names the measured execution route; always "compiled".
	Source string `json:"source"`
	// Samples holds the latest completed pass, one entry per op step.
	Samples []MemSample `json:"samples"`
	// PlannedSlabBytes is the static plan's slab size (0 when no plan).
	PlannedSlabBytes int64 `json:"planned_slab_bytes"`
	// MeasuredHighWater is the maximum MeasuredBytes observed over the
	// collector's lifetime (across all passes, not just Samples).
	MeasuredHighWater int64 `json:"measured_high_water_bytes"`
	// ScratchHighWater is the arena's lifetime high-water mark.
	ScratchHighWater int64 `json:"scratch_high_water_bytes"`
	// Passes counts completed forward passes.
	Passes int64 `json:"passes"`
}

// Verify checks the timeline's internal consistency: step indices must
// ascend from 0 and no sample's MeasuredBytes may exceed the recorded
// high water. A timeline that fails Verify is corrupted (or tampered
// with) and must not be rendered as a measured-memory report.
func (tl *MemTimeline) Verify() error {
	for i, s := range tl.Samples {
		if s.Step != i {
			return fmt.Errorf("memobs: corrupted timeline: sample %d has step %d", i, s.Step)
		}
		if s.MeasuredBytes > tl.MeasuredHighWater {
			return fmt.Errorf("memobs: corrupted timeline: step %d measured %d bytes > high water %d",
				i, s.MeasuredBytes, tl.MeasuredHighWater)
		}
		if s.MeasuredBytes < 0 || s.PlannedBytes < 0 {
			return fmt.Errorf("memobs: corrupted timeline: step %d has negative bytes", i)
		}
	}
	return nil
}

// CheckAgainstPlan enforces the hard plan invariant on a compiled
// timeline: per step, the slab bytes the kernel referenced must not
// exceed the plan's live bytes at that step, and nothing may be written
// past the planned slab. A violation means the compiled executor
// touched memory the plan never reserved.
func (tl *MemTimeline) CheckAgainstPlan() error {
	if tl.PlannedSlabBytes == 0 {
		return fmt.Errorf("memobs: timeline has no plan to check against")
	}
	for _, s := range tl.Samples {
		if s.SlabRefBytes > s.PlannedBytes {
			return fmt.Errorf("memobs: step %d (%s) referenced %d slab bytes, plan has only %d live",
				s.Step, s.Name, s.SlabRefBytes, s.PlannedBytes)
		}
		if s.PlannedBytes > tl.PlannedSlabBytes || s.WrittenBytes > tl.PlannedSlabBytes {
			return fmt.Errorf("memobs: step %d (%s) exceeds planned slab %d (live %d, written %d)",
				s.Step, s.Name, tl.PlannedSlabBytes, s.PlannedBytes, s.WrittenBytes)
		}
	}
	return nil
}

// DriftMax returns the maximum per-step drift ratio
// MeasuredBytes/PlannedBytes and the name of the op it occurs at.
// Ratios above 1 mean the step's measured footprint (slab reference +
// scratch workspace) exceeded what the plan accounts for — the plan
// does not model kernel workspace, so conv steps with im2col buffers
// legitimately drift above 1; what matters is that the ratio is finite,
// stable, and bounded by the scratch high water.
func (tl *MemTimeline) DriftMax() (float64, string) {
	max, at := 0.0, ""
	for _, s := range tl.Samples {
		if s.PlannedBytes <= 0 {
			continue
		}
		if r := float64(s.MeasuredBytes) / float64(s.PlannedBytes); r > max {
			max, at = r, s.Name
		}
	}
	return max, at
}

// DriftGeomean returns the geometric mean of per-step drift ratios.
func (tl *MemTimeline) DriftGeomean() float64 {
	sum, n := 0.0, 0
	for _, s := range tl.Samples {
		if s.PlannedBytes <= 0 || s.MeasuredBytes <= 0 {
			continue
		}
		sum += math.Log(float64(s.MeasuredBytes) / float64(s.PlannedBytes))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Record publishes the timeline's aggregate gauges: the measured high
// water, the planned slab, the scratch high water, and the drift family
// mem.drift_ratio.{max,geomean} plus one per-op gauge per sampled step.
func (tl *MemTimeline) Record(reg *trace.Metrics) {
	reg.Gauge("mem.measured_high_water_bytes").Set(float64(tl.MeasuredHighWater))
	reg.Gauge("mem.scratch_high_water_bytes").Set(float64(tl.ScratchHighWater))
	if tl.PlannedSlabBytes > 0 {
		reg.Gauge("mem.planned_slab_bytes").Set(float64(tl.PlannedSlabBytes))
		max, _ := tl.DriftMax()
		reg.Gauge("mem.drift_ratio.max").Set(max)
		reg.Gauge("mem.drift_ratio.geomean").Set(tl.DriftGeomean())
		for _, s := range tl.Samples {
			if s.PlannedBytes > 0 {
				reg.Gauge("mem.drift_ratio." + s.Name).Set(float64(s.MeasuredBytes) / float64(s.PlannedBytes))
			}
		}
	}
}
