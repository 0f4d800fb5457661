// Package memobs is the memory observability plane: it serves the
// compiled program's static memory table on /profilez, attributes
// footprint to ops and requests, and captures in-process CPU and heap
// profiles on request, joining their samples against graph op spans.
//
// A compiled program's activations live at fixed offsets of one slab,
// and its kernels return their transient workspace to the scratch
// arena before each step ends, so every per-step byte count is a
// property of the plan: graph.CompiledProgram.StepMem holds it, and
// graph's tests check it against the plan. Per-step kernel workspace
// is not observed; the measured quantity is the scratch arena's high
// water, read from the arena itself.
package memobs

import "splitcnn/internal/graph"

// MemTimeline is the /profilez memory body of one compiled program:
// the static table of its latest pass and its high waters.
type MemTimeline struct {
	// Samples is graph.CompiledProgram.StepMem of the latest pass, one
	// row per op step.
	Samples []graph.StepMem `json:"samples"`
	// PlannedSlabBytes is the static plan's slab size.
	PlannedSlabBytes int64 `json:"planned_slab_bytes"`
	// MeasuredHighWater is the largest slab bytes one step of any pass
	// run so far references.
	MeasuredHighWater int64 `json:"measured_high_water_bytes"`
	// ScratchHighWater is the scratch arena's lifetime high-water mark.
	ScratchHighWater int64 `json:"scratch_high_water_bytes"`
}
