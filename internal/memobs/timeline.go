// Package memobs is the memory observability plane: it publishes the
// compiled program's static memory timeline next to the one quantity
// execution measures, attributes footprint to ops and requests, and
// runs an in-process continuous profiler whose windows join pprof
// samples against graph op spans.
//
// A compiled program's activations live at fixed offsets of one slab,
// and its kernels return their transient workspace to the scratch
// arena before each step ends, so every per-step byte count is a
// property of the plan: PassTimeline reads it from the program's static
// table once, at load. Per-step kernel workspace is not observed; the
// measured quantity is the scratch arena's high water, read from the
// arena itself. The drift gauges compare, per op, the slab bytes a step
// references against the plan's live bytes at that step.
package memobs

import (
	"fmt"
	"math"

	"splitcnn/internal/graph"
	"splitcnn/internal/trace"
)

// MemSample is one op step's memory state.
type MemSample struct {
	Step int    `json:"step"`
	Name string `json:"name"`
	Kind string `json:"kind"`
	// MeasuredBytes is the slab footprint the step's kernel call
	// references: its output window plus every distinct slab-resident
	// input, over the pass's live batch.
	MeasuredBytes int64 `json:"measured_bytes"`
	// PlannedBytes is the static plan's live bytes at this step — the
	// sum of storage windows whose lifetime covers it.
	PlannedBytes int64 `json:"planned_bytes"`
	// WrittenBytes is the high-water extent of slab windows written
	// so far in the pass.
	WrittenBytes int64 `json:"written_bytes"`
}

// MemTimeline is one forward pass plus the program's high waters.
type MemTimeline struct {
	// Samples holds one entry per op step of the pass.
	Samples []MemSample `json:"samples"`
	// PlannedSlabBytes is the static plan's slab size (0 when no plan).
	PlannedSlabBytes int64 `json:"planned_slab_bytes"`
	// MeasuredHighWater is the maximum MeasuredBytes over the passes the
	// timeline covers: Samples' own from PassTimeline, every pass run so
	// far from a serving instance.
	MeasuredHighWater int64 `json:"measured_high_water_bytes"`
	// ScratchHighWater is the scratch arena's lifetime high-water mark.
	ScratchHighWater int64 `json:"scratch_high_water_bytes"`
}

// PassTimeline builds the timeline of p's pass over a live batch of n
// from the program's static step table; MeasuredHighWater is the
// pass's peak and ScratchHighWater is left for the caller to read from
// the arena.
func PassTimeline(p *graph.CompiledProgram, n int) *MemTimeline {
	steps := p.StepMem(n)
	tl := &MemTimeline{Samples: make([]MemSample, len(steps)), PlannedSlabBytes: p.SlabBytes()}
	for i, s := range steps {
		tl.Samples[i] = MemSample{
			Step: i, Name: s.Name, Kind: s.Kind,
			MeasuredBytes: s.RefBytes, PlannedBytes: s.LiveBytes, WrittenBytes: s.WrittenBytes,
		}
		tl.MeasuredHighWater = max(tl.MeasuredHighWater, s.RefBytes)
	}
	return tl
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
// timeline: per step, the slab bytes the kernel references must not
// exceed the plan's live bytes at that step, and nothing may be written
// past the planned slab. A violation means the compiled executor
// touches memory the plan never reserved.
func (tl *MemTimeline) CheckAgainstPlan() error {
	if tl.PlannedSlabBytes == 0 {
		return fmt.Errorf("memobs: timeline has no plan to check against")
	}
	for _, s := range tl.Samples {
		if s.MeasuredBytes > s.PlannedBytes {
			return fmt.Errorf("memobs: step %d (%s) referenced %d slab bytes, plan has only %d live",
				s.Step, s.Name, s.MeasuredBytes, s.PlannedBytes)
		}
		if s.PlannedBytes > tl.PlannedSlabBytes || s.WrittenBytes > tl.PlannedSlabBytes {
			return fmt.Errorf("memobs: step %d (%s) exceeds planned slab %d (live %d, written %d)",
				s.Step, s.Name, tl.PlannedSlabBytes, s.PlannedBytes, s.WrittenBytes)
		}
	}
	return nil
}

// DriftMax returns the maximum per-step drift ratio
// MeasuredBytes/PlannedBytes and the name of the op it occurs at. A
// step's referenced slab bytes are a subset of the plan's live bytes,
// so on a timeline that passes CheckAgainstPlan the ratio is at most 1;
// it falls below 1 where storages the step does not read stay live
// across it and where a prefix pass touches only its live samples. Kernel workspace
// is not part of any sample: the scratch arena's high water is
// reported separately.
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
