package sim

import (
	"fmt"
	"strconv"

	"splitcnn/internal/device"
	"splitcnn/internal/hmms"
	"splitcnn/internal/trace"
)

// Replay lowers a planned program onto the discrete-event device model
// (internal/device) — one kernel per op on the compute stream, one
// memory stream per offloaded TSO ("get an idle memory stream m", §4.3),
// with the plan's four critical moments realized as event record/wait
// pairs — and executes it. It is the detailed counterpart of Run: Run
// computes the step analytically; Replay exercises explicit streams,
// link arbitration and event synchronization, and additionally reports
// the time-resolved device memory occupancy of the static plan (when mem
// is non-nil), validating it against the device capacity.
func Replay(p *hmms.Program, plan *hmms.OffloadPlan, mem *hmms.MemoryPlan, capacity int64) (*device.Trace, error) {
	return ReplayTraced(p, plan, mem, capacity, nil)
}

// ReplayTraced is Replay with a trace recorder attached to the device:
// every retired kernel and copy is forwarded as a span, one trace lane
// per stream ("compute", "mem1", "mem2", ...). Unlike Run's analytic
// three-lane timeline, the replay shows each offloaded TSO on its own
// memory stream — the closest analogue of the paper's nvprof capture.
// rec may be nil.
func ReplayTraced(p *hmms.Program, plan *hmms.OffloadPlan, mem *hmms.MemoryPlan, capacity int64, rec trace.Recorder) (*device.Trace, error) {
	if err := plan.Check(p); err != nil {
		return nil, fmt.Errorf("sim.Replay: %w", err)
	}
	d := device.New(p.Device.LinkBandwidth)
	d.MemCapacity = capacity
	d.Recorder = rec

	// Entries by the op each of their four moments falls at, same-op
	// transfers most-urgent-first exactly as in Run; memory streams are
	// created lazily in issue order so that FIFO tie-breaking on the
	// link matches the issue sequence.
	offloadAt, syncAfter, prefetchAt, syncBefore := groupEntries(len(p.Ops), plan.Entries)

	n := numTSOs(plan.Entries)
	offloadEv := make([]device.EventID, n)
	prefetchEv := make([]device.EventID, n)
	kernels := make([]device.Handle, len(p.Ops))

	for i := range p.Ops {
		op := &p.Ops[i]
		// Copies planned "at op i" start when the compute stream
		// *reaches* op i, not at program start: gate each memory stream
		// on an event recorded on the compute stream just before the
		// kernel launch.
		var gate device.EventID
		if len(offloadAt.at(i)) > 0 || len(prefetchAt.at(i)) > 0 {
			gate = d.Record(device.ComputeStream)
		}
		// Start of the offload: right as op i starts executing (the
		// copy's source was fully written before op i).
		for _, e := range offloadAt.at(i) {
			s := d.NewStream()
			d.Wait(s, gate)
			d.Copy(s, copyLabel("offload-tso", e.TSO), e.Bytes)
			offloadEv[e.TSO] = d.Record(s)
		}
		// Start of the prefetch.
		for _, e := range prefetchAt.at(i) {
			s := d.NewStream()
			d.Wait(s, gate)
			d.Copy(s, copyLabel("prefetch-tso", e.TSO), e.Bytes)
			prefetchEv[e.TSO] = d.Record(s)
		}
		// End of the prefetch: compute waits before the consuming op.
		// Check put the prefetch at or before this op, so it is issued.
		for _, e := range syncBefore.at(i) {
			d.Wait(device.ComputeStream, prefetchEv[e.TSO])
		}
		kernels[i] = d.Launch(op.Name, op.Time)
		// End of the offload: compute synchronizes right after op i and
		// the device TSO is freed.
		for _, e := range syncAfter.at(i) {
			d.Wait(device.ComputeStream, offloadEv[e.TSO])
		}
	}

	// Attach the static plan's device blocks to kernel lifetimes so the
	// trace reports time-resolved occupancy.
	if mem != nil {
		for _, b := range mem.Blocks {
			if b.Pool == hmms.PoolHost {
				continue
			}
			start := min(max(b.Start, 0), len(p.Ops)-1)
			end := min(max(b.End, start), len(p.Ops)-1)
			d.AllocAt(kernels[start], b.Bytes)
			d.FreeAt(kernels[end], b.Bytes)
		}
	}
	return d.Run()
}

// copyLabel renders a transfer's label, the prefix followed by the TSO
// ID in decimal, in one allocation.
func copyLabel(prefix string, id hmms.TSOID) string {
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], prefix...), int64(id), 10))
}
