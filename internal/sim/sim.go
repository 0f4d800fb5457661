// Package sim is step five of HMMS at runtime: it replays a serialized,
// memory-planned program on a discrete-event model of the paper's
// testbed — one compute stream executing kernels back-to-back and a
// host link carrying offload/prefetch copies issued to memory streams.
// Synchronization points from the offload plan stall the compute stream
// exactly where the plan put them, which is how the layer-wise baseline
// loses throughput and HMMS does not (Figures 8 and 9).
package sim

import (
	"fmt"
	"sort"
	"strconv"

	"splitcnn/internal/hmms"
	"splitcnn/internal/trace"
)

// Span is one occupancy interval on a stream, the unit of the
// nvprof-style timelines of Figure 9.
type Span struct {
	Stream string // "compute", "offload", "prefetch"
	Name   string
	Start  float64
	End    float64
}

// Result reports one simulated training step.
type Result struct {
	Method string
	// TotalTime is the wall-clock of the step; ComputeTime the sum of
	// kernel times; StallTime their difference (compute blocked on
	// memory-stream synchronizations).
	TotalTime, ComputeTime, StallTime float64
	// ForwardStall/BackwardStall split StallTime by phase (offload-sync
	// stalls land in forward, prefetch-sync stalls in backward).
	ForwardStall, BackwardStall float64
	// OffloadedBytes is the volume moved to the host and back.
	OffloadedBytes int64
	// Spans is the stream timeline (compute + copies).
	Spans []Span
	// PeakDeviceBytes is the statically planned device footprint.
	PeakDeviceBytes int64
	HostBytes       int64
}

// Throughput returns images/second for the given batch size.
func (r *Result) Throughput(batch int) float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(batch) / r.TotalTime
}

// Degradation returns the fractional slowdown relative to the
// compute-only lower bound.
func (r *Result) Degradation() float64 {
	if r.ComputeTime <= 0 {
		return 0
	}
	return r.TotalTime/r.ComputeTime - 1
}

// EmitTrace replays the step's stream timeline into a trace recorder:
// one lane per stream ("compute", "offload", "prefetch"), one span per
// kernel or copy — the Figure 9 artifact in Chrome trace form.
func (r *Result) EmitTrace(rec trace.Recorder) {
	for _, s := range r.Spans {
		rec.Span(s.Stream, s.Name, s.Start, s.End)
	}
}

// OpTimes extracts the per-op start/end times from the step's compute
// lane, in op order — the op clock hmms.(*MemoryPlan).Timeline replays
// a memory plan against. Compute spans are appended in execution order,
// which for the in-order stream is op-index order.
func (r *Result) OpTimes() (start, end []float64) {
	for _, s := range r.Spans {
		if s.Stream != "compute" {
			continue
		}
		start = append(start, s.Start)
		end = append(end, s.End)
	}
	return start, end
}

// RecordMetrics publishes the step's headline numbers into a metrics
// registry. The sim.stall_seconds and mem-side gauges are recorded
// from the exact float64/int64 fields of Result, so a JSON dump of the
// registry reproduces them bit-for-bit.
func (r *Result) RecordMetrics(m *trace.Metrics) {
	m.Gauge("sim.total_seconds").Set(r.TotalTime)
	m.Gauge("sim.compute_seconds").Set(r.ComputeTime)
	m.Gauge("sim.stall_seconds").Set(r.StallTime)
	m.Gauge("sim.forward_stall_seconds").Set(r.ForwardStall)
	m.Gauge("sim.backward_stall_seconds").Set(r.BackwardStall)
	// Every offloaded byte is prefetched back before its backward read.
	m.Counter("sim.offload_bytes").Add(r.OffloadedBytes)
	m.Counter("sim.prefetch_bytes").Add(r.OffloadedBytes)
	m.Gauge("sim.peak_device_bytes").Set(float64(r.PeakDeviceBytes))
	m.Gauge("sim.host_bytes").Set(float64(r.HostBytes))
}

// Run simulates one training step of program p under the given offload
// plan and memory plan (mem may be nil to skip footprint accounting).
func Run(p *hmms.Program, plan *hmms.OffloadPlan, mem *hmms.MemoryPlan) (*Result, error) {
	if err := plan.Check(p); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res := &Result{Method: plan.Method, ComputeTime: p.ComputeTime(), OffloadedBytes: plan.OffloadedBytes}
	if mem != nil {
		res.PeakDeviceBytes = mem.DeviceBytes()
		res.HostBytes = mem.PoolBytes[hmms.PoolHost]
	}

	offloadAt, syncAfter, prefetchAt, syncBefore := groupEntries(len(p.Ops), plan.Entries)
	res.Spans = make([]Span, 0, len(p.Ops)+2*len(plan.Entries))

	// The host link is a single FIFO resource: concurrent copies
	// serialize (streams only provide synchronization granularity).
	var t, linkFree float64
	n := numTSOs(plan.Entries)
	offloadDone := make([]float64, n)
	prefetchDone := make([]float64, n)

	issue := func(e *hmms.OffloadEntry, stream string, done []float64) {
		start := max(linkFree, t)
		end := start + p.Device.CopyTime(e.Bytes)
		linkFree = end
		done[e.TSO] = end
		res.Spans = append(res.Spans, Span{Stream: stream, Name: strconv.Itoa(int(e.TSO)), Start: start, End: end})
	}

	stall := func(op *hmms.OpExec, d float64) {
		res.StallTime += d
		if op.Phase == hmms.Forward {
			res.ForwardStall += d
		} else {
			res.BackwardStall += d
		}
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		// Issue transfers scheduled at this op's start.
		for _, e := range offloadAt.at(i) {
			issue(e, "offload", offloadDone)
		}
		for _, e := range prefetchAt.at(i) {
			issue(e, "prefetch", prefetchDone)
		}
		// End-of-prefetch synchronization gates this op's launch.
		for _, e := range syncBefore.at(i) {
			if d := prefetchDone[e.TSO]; d > t {
				stall(op, d-t)
				t = d
			}
		}
		start := t
		t += op.Time
		res.Spans = append(res.Spans, Span{Stream: "compute", Name: op.Name, Start: start, End: t})
		// End-of-offload synchronization happens right after the op.
		for _, e := range syncAfter.at(i) {
			if d := offloadDone[e.TSO]; d > t {
				stall(op, d-t)
				t = d
			}
		}
	}
	res.TotalTime = t
	return res, nil
}

// byOp groups a plan's entries by the op one of their four critical
// moments falls at: the entries at op i are list[start[i]:start[i+1]],
// in plan order.
type byOp struct {
	start []int32
	list  []*hmms.OffloadEntry
}

// at returns the entries filed under op i.
func (g byOp) at(i int) []*hmms.OffloadEntry { return g.list[g.start[i]:g.start[i+1]] }

// groupByOp files every entry under the op moment(e) names, a counting
// sort that keeps plan order within an op. The plan must have passed
// Check, so every op index is below numOps.
func groupByOp(numOps int, entries []*hmms.OffloadEntry, moment func(*hmms.OffloadEntry) int) byOp {
	g := byOp{start: make([]int32, numOps+1), list: make([]*hmms.OffloadEntry, len(entries))}
	for _, e := range entries {
		g.start[moment(e)+1]++
	}
	for i := 1; i <= numOps; i++ {
		g.start[i] += g.start[i-1]
	}
	// Fill each op's run, advancing start[i] to the end of run i (the
	// start of run i+1), then shift the starts back into place.
	for _, e := range entries {
		i := moment(e)
		g.list[g.start[i]] = e
		g.start[i]++
	}
	copy(g.start[1:], g.start[:numOps])
	g.start[0] = 0
	return g
}

// groupEntries groups a plan's entries by each of their four critical
// moments. Transfers issued at the same op go out most-urgent-first:
// the link is FIFO, so a copy needed soonest must not queue behind one
// needed later.
func groupEntries(numOps int, entries []*hmms.OffloadEntry) (offloadAt, syncAfter, prefetchAt, syncBefore byOp) {
	offloadAt = groupByOp(numOps, entries, func(e *hmms.OffloadEntry) int { return e.OffloadAtOp })
	syncAfter = groupByOp(numOps, entries, func(e *hmms.OffloadEntry) int { return e.SyncAtOp })
	prefetchAt = groupByOp(numOps, entries, func(e *hmms.OffloadEntry) int { return e.PrefetchAtOp })
	syncBefore = groupByOp(numOps, entries, func(e *hmms.OffloadEntry) int { return e.SyncBeforeOp })
	for _, g := range []byOp{offloadAt, prefetchAt} {
		for i := range numOps {
			if es := g.at(i); len(es) > 1 {
				sort.Slice(es, func(a, b int) bool { return es[a].SyncBeforeOp < es[b].SyncBeforeOp })
			}
		}
	}
	return offloadAt, syncAfter, prefetchAt, syncBefore
}

// numTSOs returns one more than the highest TSO a plan's entries name:
// the length of a slice indexed by their TSO IDs, which Check keeps
// non-negative.
func numTSOs(entries []*hmms.OffloadEntry) int {
	n := 0
	for _, e := range entries {
		n = max(n, int(e.TSO)+1)
	}
	return n
}
