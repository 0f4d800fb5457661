package memobs

import (
	"sync"

	"splitcnn/internal/graph"
)

// Collector accumulates a measured MemTimeline from a compiled
// program's step hook. It is safe for concurrent reads (HTTP
// handlers snapshot via Timeline) against a single writer — hooks fire
// from the one goroutine that runs Forward, which is the serving
// registry's dispatch discipline.
type Collector struct {
	mu          sync.Mutex
	plannedSlab int64
	plannedLive []int64 // per step index
	steps       int

	cur    []MemSample // pass in progress
	last   []MemSample // latest completed pass
	passes int64
	highW  int64 // lifetime max MeasuredBytes
	scrHW  int64 // lifetime arena high water
	lastPk int64 // peak MeasuredBytes of the latest completed pass
}

// AttachCompiled installs a step hook on p and returns the collector
// feeding off it. Planned live bytes per step are derived from the
// program's plan entries: a storage contributes its window to every
// step its lifetime [Start, End] covers.
func AttachCompiled(p *graph.CompiledProgram) *Collector {
	c := &Collector{
		plannedSlab: p.SlabBytes(),
		plannedLive: PlannedLiveBytes(p.PlanEntries(), p.Steps()),
		steps:       p.Steps(),
	}
	p.Hook = c.compiledStep
	return c
}

// PlannedLiveBytes computes, for each step index, the plan's live bytes
// — the sum of distinct storage windows whose lifetime covers the step.
func PlannedLiveBytes(entries []graph.PlanEntry, steps int) []int64 {
	live := make([]int64, steps)
	seen := make(map[int]bool)
	for _, e := range entries {
		if e.Storage < 0 || e.Alias || seen[e.Storage] {
			continue
		}
		seen[e.Storage] = true
		for s := e.Start; s <= e.End && s < steps; s++ {
			if s >= 0 {
				live[s] += e.Bytes
			}
		}
	}
	return live
}

func (c *Collector) compiledStep(ev graph.StepEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Step == 0 {
		c.cur = c.cur[:0]
	}
	planned := int64(0)
	if ev.Step < len(c.plannedLive) {
		planned = c.plannedLive[ev.Step]
	}
	measured := ev.SlabRefBytes + ev.Scratch.InUseBytes
	c.cur = append(c.cur, MemSample{
		Step: ev.Step, Name: ev.Name, Kind: ev.Kind,
		MeasuredBytes: measured, PlannedBytes: planned,
		SlabRefBytes: ev.SlabRefBytes, ScratchBytes: ev.Scratch.InUseBytes,
		WrittenBytes: ev.SlabWrittenBytes,
	})
	if measured > c.highW {
		c.highW = measured
	}
	if ev.Scratch.HighWaterBytes > c.scrHW {
		c.scrHW = ev.Scratch.HighWaterBytes
	}
	if ev.Step == c.steps-1 {
		c.finishLocked()
	}
}

func (c *Collector) finishLocked() {
	c.last = append(c.last[:0], c.cur...)
	c.cur = c.cur[:0]
	c.passes++
	pk := int64(0)
	for _, s := range c.last {
		if s.MeasuredBytes > pk {
			pk = s.MeasuredBytes
		}
	}
	c.lastPk = pk
}

// Timeline snapshots the latest completed pass plus aggregates.
func (c *Collector) Timeline() *MemTimeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &MemTimeline{
		Source:            "compiled",
		Samples:           append([]MemSample(nil), c.last...),
		PlannedSlabBytes:  c.plannedSlab,
		MeasuredHighWater: c.highW,
		ScratchHighWater:  c.scrHW,
		Passes:            c.passes,
	}
}

// LastPassPeak returns the peak measured bytes of the latest completed
// pass — the per-batch footprint the serving batcher attributes to
// requests.
func (c *Collector) LastPassPeak() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPk
}

// Passes returns the number of completed passes.
func (c *Collector) Passes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.passes
}
