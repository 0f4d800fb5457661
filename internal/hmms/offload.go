package hmms

import (
	"fmt"
	"sort"
)

// OffloadEntry is the planned lifecycle of one offloaded TSO — the four
// critical moments of §4.3.
type OffloadEntry struct {
	TSO TSOID
	// OffloadAtOp: the device→host transfer is issued right after this
	// (forward) op starts executing — the start of the offload.
	OffloadAtOp int
	// SyncAtOp: the compute stream synchronizes with the memory stream
	// right after this (forward) op, and the device TSO is freed — the
	// end of the offload.
	SyncAtOp int
	// PrefetchAtOp: the host→device transfer is issued when the compute
	// stream reaches this op — the start of the prefetch.
	PrefetchAtOp int
	// SyncBeforeOp: the compute stream waits for the prefetch to finish
	// before executing this (backward) op — the end of the prefetch.
	SyncBeforeOp int
	Bytes        int64
}

// OffloadPlan is the outcome of offload/prefetch planning.
type OffloadPlan struct {
	// Method names the planning scheme ("none", "layerwise", "hmms").
	Method  string
	Entries []*OffloadEntry
	// OffloadedBytes / CandidateBytes report realized vs. available
	// offload volume.
	OffloadedBytes, CandidateBytes int64
}

// Check reports the first entry that cannot be replayed on p: both
// transfers must be issued no later than their synchronization, at ops
// of p (0 ≤ OffloadAtOp ≤ SyncAtOp < len(p.Ops), 0 ≤ PrefetchAtOp ≤
// SyncBeforeOp < len(p.Ops)), every entry must name a TSO (a
// non-negative ID) and move bytes, and no TSO may be planned twice.
// Both simulators check a plan with it before running it.
func (o *OffloadPlan) Check(p *Program) error {
	n := len(p.Ops)
	maxTSO := TSOID(-1)
	for _, e := range o.Entries {
		maxTSO = max(maxTSO, e.TSO)
	}
	seen := make([]bool, maxTSO+1)
	for _, e := range o.Entries {
		switch {
		case e.TSO < 0:
			return fmt.Errorf("hmms: malformed offload entry %+v: negative TSO", *e)
		case e.OffloadAtOp < 0 || e.SyncAtOp < e.OffloadAtOp || e.SyncAtOp >= n:
			return fmt.Errorf("hmms: malformed offload entry %+v: want 0 ≤ OffloadAtOp ≤ SyncAtOp < %d", *e, n)
		case e.PrefetchAtOp < 0 || e.SyncBeforeOp < e.PrefetchAtOp || e.SyncBeforeOp >= n:
			return fmt.Errorf("hmms: malformed offload entry %+v: want 0 ≤ PrefetchAtOp ≤ SyncBeforeOp < %d", *e, n)
		case e.Bytes <= 0:
			return fmt.Errorf("hmms: malformed offload entry %+v: moves no bytes", *e)
		case seen[e.TSO]:
			return fmt.Errorf("hmms: TSO %d planned twice", e.TSO)
		}
		seen[e.TSO] = true
	}
	return nil
}

// Fraction returns offloaded/candidate bytes.
func (o *OffloadPlan) Fraction() float64 {
	if o.CandidateBytes == 0 {
		return 0
	}
	return float64(o.OffloadedBytes) / float64(o.CandidateBytes)
}

// PlanNone returns the baseline plan that offloads nothing.
func PlanNone() *OffloadPlan { return &OffloadPlan{Method: "none"} }

// candidates returns the offloadable TSOs in forward program order:
// TSOs holding stashed activations/inputs, keyed by the forward op after
// which they are free of writes and forward reads. Returned per TSO:
// (tso, readyOp) where readyOp is the last forward op touching it.
type candidate struct {
	tso     TSOID
	readyOp int // last forward write or read: offload may start after it
	bytes   int64
}

func offloadCandidates(p *Program, a *Assignment) []candidate {
	var out []candidate
	for _, tso := range a.TSOs {
		if tso.Kind == KParam || tso.Kind == KParamGrad {
			continue
		}
		stashed := false
		ready := -1
		ok := true
		for _, tid := range tso.Tensors {
			t := p.Tensors[tid]
			if t.Kind == KGradient {
				ok = false // gradients are produced in backward; nothing to offload
				break
			}
			if t.Stashed {
				stashed = true
			}
			if t.LastWrite >= p.NumForward {
				ok = false
				break
			}
			// The transfer may be issued at the start of any op after the
			// last write completes (the writer itself is still producing
			// the data), and the TSO must stay resident through its last
			// forward read.
			if t.LastWrite+1 > ready {
				ready = t.LastWrite + 1
			}
			if r := t.LastForwardRead(p); r > ready {
				ready = r
			}
		}
		if !ok || !stashed || ready >= p.NumForward {
			continue
		}
		out = append(out, candidate{tso: tso.ID, readyOp: ready, bytes: tso.Bytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].readyOp < out[j].readyOp })
	return out
}

// firstBackwardReadOfTSO returns the earliest backward op reading any
// tensor of the TSO.
func firstBackwardReadOfTSO(p *Program, a *Assignment, id TSOID) int {
	first := len(p.Ops)
	for _, tid := range a.TSOs[id].Tensors {
		if r := p.Tensors[tid].FirstBackwardRead(p); r >= 0 && r < first {
			first = r
		}
	}
	if first == len(p.Ops) {
		return -1
	}
	return first
}

// selectRunning caps the offload set with a *running* ratio: walking the
// candidates in forward order, a TSO is offloaded only if doing so keeps
// offloaded-so-far ≤ limit × generated-so-far — the paper's "simple
// algorithmic logic to keep the ratio of offloaded and non-offloaded
// TSOs under the theoretical limit". Enforcing the ratio pointwise
// (rather than on the totals) matters twice over: it skips offloads
// exactly where production outruns the link, so the capacity balance of
// Algorithm 1 recovers quickly and device TSOs are freed progressively
// instead of piling up behind one late synchronization, and it spreads
// the prefetch demand across the backward pass symmetrically.
func selectRunning(cands []candidate, limit float64) (map[TSOID]bool, int64, int64) {
	chosen := make(map[TSOID]bool)
	var generated, used int64
	for _, c := range cands { // cands are sorted by readyOp
		generated += c.bytes
		if float64(used+c.bytes) <= limit*float64(generated) {
			chosen[c.tso] = true
			used += c.bytes
		}
	}
	return chosen, used, generated
}

// PlanOffload implements Algorithm 1 plus the mirrored prefetch pass:
// offload transfers start as soon as a TSO's last forward touch begins
// executing; the end-of-offload synchronization is deferred until the
// offload-capacity balance (gains = op time × link bandwidth, losses =
// offloaded TSO sizes) turns non-negative, so computation is never
// blocked waiting on the link. Prefetch is planned symmetrically,
// scanning the backward list in reverse. limit caps the offloaded
// fraction of candidate bytes (pass p.TheoreticalOffloadLimit() to
// enforce the paper's theoretical limit, or 1 for VGG-style networks).
func PlanOffload(p *Program, a *Assignment, limit float64) (*OffloadPlan, error) {
	if limit < 0 || limit > 1 {
		return nil, fmt.Errorf("hmms.PlanOffload: limit %v outside [0, 1]", limit)
	}
	cands := offloadCandidates(p, a)
	plan := &OffloadPlan{Method: "hmms", CandidateBytes: 0}

	// Forward sweep — Algorithm 1 with per-TSO memory streams. Each
	// offload is issued right after the TSO's last forward touch starts
	// executing (the "start of the offload"); its end-of-offload
	// synchronization is planned at the op during which the copy
	// completes on the FIFO link — gains accrue at op-time × link
	// bandwidth, losses at TSO size, and a TSO's stream is synchronized
	// (and the device TSO freed) exactly when the accumulated capacity
	// covers its transfer, so computation never blocks on the link and
	// device memory drains progressively instead of waiting for one
	// aggregate balance to recover.
	linkBW := p.Device.LinkBandwidth
	// cumCap[i] = link capacity accumulated before op i starts.
	cumCap := make([]float64, p.NumForward+1)
	for i := 0; i < p.NumForward; i++ {
		cumCap[i+1] = cumCap[i] + p.Ops[i].Time*linkBW
	}
	var generated, used int64
	var issued float64 // bytes committed to the link so far
	for _, c := range cands {
		generated += c.bytes
		plan.CandidateBytes += c.bytes
		// Ratio cap: the paper's "simple algorithmic logic to keep the
		// ratio of offloaded and non-offloaded TSOs under the
		// theoretical limit", enforced on the running totals.
		if float64(used+c.bytes) > limit*float64(generated) {
			continue
		}
		// Feasibility: the copy must finish within the forward pass, or
		// its end-of-offload sync would stall the loss computation.
		start := max(issued, cumCap[c.readyOp])
		end := start + float64(c.bytes)
		if end > cumCap[p.NumForward] {
			continue
		}
		issued = end
		used += c.bytes
		// Sync at the op whose execution window covers the completion.
		j := sort.Search(p.NumForward, func(k int) bool { return cumCap[k+1] >= end })
		plan.Entries = append(plan.Entries, &OffloadEntry{
			TSO:         c.tso,
			Bytes:       c.bytes,
			OffloadAtOp: c.readyOp,
			SyncAtOp:    min(j, p.NumForward-1),
		})
	}
	plan.OffloadedBytes = used

	// Backward (prefetch) planning. The paper mirrors the balance
	// analysis "in the opposite direction from the last operation in the
	// backward propagation graph": a prefetch starts as soon as the
	// accumulated link capacity covers the pending transfers, i.e. just
	// in time for its consumer. We realize that intent exactly: walking
	// the entries in consumption order, each prefetch is planned at the
	// latest op whose start leaves the (FIFO) link enough time to finish
	// the copy before the consuming op begins. This both avoids
	// prefetch-sync stalls and keeps the prefetched TSO's device
	// residency minimal for the static memory planner.
	planPrefetch(p, a, plan)
	sort.Slice(plan.Entries, func(i, j int) bool { return plan.Entries[i].OffloadAtOp < plan.Entries[j].OffloadAtOp })
	return plan, nil
}

// planPrefetch fills PrefetchAtOp/SyncBeforeOp for every plan entry
// using just-in-time scheduling over the backward op list.
func planPrefetch(p *Program, a *Assignment, plan *OffloadPlan) {
	// cum[i] = backward compute time elapsed before op i starts
	// (i in [NumForward, len(Ops)]).
	n := len(p.Ops)
	cum := make([]float64, n+1)
	for i := p.NumForward; i < n; i++ {
		cum[i+1] = cum[i] + p.Ops[i].Time
	}
	for _, e := range plan.Entries {
		fb := firstBackwardReadOfTSO(p, a, e.TSO)
		if fb < 0 {
			// Defensive: stashed data always has a backward reader.
			fb = n - 1
		}
		e.SyncBeforeOp = fb
	}
	// Offload copies issued late in the forward pass may still occupy
	// the link when the backward pass begins; prefetches cannot start
	// before that backlog drains.
	cumFwd := make([]float64, p.NumForward+1)
	for i := 0; i < p.NumForward; i++ {
		cumFwd[i+1] = cumFwd[i] + p.Ops[i].Time
	}
	linkBusy := 0.0
	for _, e := range plan.Entries {
		start := max(linkBusy, cumFwd[e.OffloadAtOp])
		linkBusy = start + float64(e.Bytes)/p.Device.LinkBandwidth
	}
	backlog := max(0, linkBusy-cumFwd[p.NumForward]) // backward-compute-time coordinates

	// Latest-feasible schedule: walk the entries from the last backward
	// consumer towards the first (the paper's reverse direction),
	// placing each copy as late as the link allows while meeting every
	// deadline — each prefetch starts exactly when the remaining
	// capacity balance permits, which also minimizes how long the
	// prefetched TSO pins device memory.
	entries := append([]*OffloadEntry(nil), plan.Entries...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].SyncBeforeOp > entries[j].SyncBeforeOp })
	cursor := cum[n] // no copy needs to end after the last op starts... (deadline-capped below)
	for _, e := range entries {
		d := float64(e.Bytes) / p.Device.LinkBandwidth
		end := min(cum[e.SyncBeforeOp], cursor)
		start := max(end-d, backlog) // infeasible head: issue as soon as the link frees
		cursor = start
		// Issue at the latest backward op starting no later than start.
		i := sort.Search(n-p.NumForward, func(k int) bool { return cum[p.NumForward+k+1] > start })
		e.PrefetchAtOp = min(p.NumForward+i, e.SyncBeforeOp)
	}
}

// oneLayerAhead returns the backward op index one "layer" (the previous
// parameterized or pooling backward op) before op fb — vDNN's prefetch
// horizon: while layer l's backward executes, fetch what layer l-1 will
// need.
func oneLayerAhead(p *Program, fb int) int {
	for i := fb - 1; i > p.NumForward; i-- {
		switch p.Ops[i].Kind {
		case "conv", "linear", "maxpool", "avgpool", "batchnorm":
			return i
		}
	}
	return p.NumForward
}

// PlanLayerWise is the vDNN-style baseline (§2.3): following vDNN's
// design, only the input feature maps of convolutional layers are
// offload targets; each offloaded TSO is transferred during the
// execution of its consumer layer and the compute stream synchronizes
// immediately after that layer — no spreading across layers — and is
// prefetched exactly one layer ahead of its backward consumer. The same
// fraction cap as PlanOffload applies so the two schemes are compared at
// equal offload percentages (§6.2).
func PlanLayerWise(p *Program, a *Assignment, limit float64) (*OffloadPlan, error) {
	if limit < 0 || limit > 1 {
		return nil, fmt.Errorf("hmms.PlanLayerWise: limit %v outside [0, 1]", limit)
	}
	cands := offloadCandidates(p, a)
	// Restrict to TSOs read by a convolution in the forward pass.
	convInput := make(map[TSOID]bool)
	for _, op := range p.ForwardOps() {
		if op.Kind == "conv" && len(op.Reads) > 0 {
			convInput[a.TensorTSO[op.Reads[0]]] = true
		}
	}
	kept := cands[:0]
	for _, c := range cands {
		if convInput[c.tso] {
			kept = append(kept, c)
		}
	}
	cands = kept
	chosen, used, total := selectRunning(cands, limit)
	plan := &OffloadPlan{Method: "layerwise", OffloadedBytes: used, CandidateBytes: total}
	for _, c := range cands {
		if !chosen[c.tso] {
			continue
		}
		fb := firstBackwardReadOfTSO(p, a, c.tso)
		if fb < 0 {
			fb = len(p.Ops) - 1
		}
		e := &OffloadEntry{
			TSO:          c.tso,
			Bytes:        c.bytes,
			OffloadAtOp:  c.readyOp,
			SyncAtOp:     c.readyOp, // eager per-layer synchronization
			PrefetchAtOp: oneLayerAhead(p, fb),
			SyncBeforeOp: fb,
		}
		plan.Entries = append(plan.Entries, e)
	}
	return plan, nil
}
