package sim_test

import (
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/costmodel"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/sim"
)

func TestBaselineHasNoStall(t *testing.T) {
	m := models.VGG19ImageNet(8)
	res, prog, mem, err := sim.PlanAndRun(m.Graph, costmodel.P100(), sim.MethodNone, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallTime != 0 {
		t.Fatalf("baseline stall %v", res.StallTime)
	}
	if res.TotalTime != res.ComputeTime {
		t.Fatalf("baseline total %v != compute %v", res.TotalTime, res.ComputeTime)
	}
	if res.TotalTime != prog.ComputeTime() {
		t.Fatal("result/program compute time mismatch")
	}
	if mem.PoolBytes[hmms.PoolHost] != 0 {
		t.Fatal("baseline uses host memory")
	}
	if res.Throughput(8) <= 0 {
		t.Fatal("throughput must be positive")
	}
}

// TestFigure8Ordering is the §6.2 headline: baseline <= HMMS << layer-
// wise in step time, with HMMS degradation under a few percent and
// layer-wise degradation several times larger, for both VGG-19 and
// ResNet-50.
func TestFigure8Ordering(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *models.Model
	}{
		{"vgg19", models.VGG19ImageNet(16)},
		{"resnet50", models.ResNet50ImageNet(16)},
	} {
		base, _, _, err := sim.PlanAndRun(tc.m.Graph, costmodel.P100(), sim.MethodNone, -1)
		if err != nil {
			t.Fatal(err)
		}
		lw, _, _, err := sim.PlanAndRun(tc.m.Graph, costmodel.P100(), sim.MethodLayerWise, -1)
		if err != nil {
			t.Fatal(err)
		}
		hm, _, _, err := sim.PlanAndRun(tc.m.Graph, costmodel.P100(), sim.MethodHMMS, -1)
		if err != nil {
			t.Fatal(err)
		}
		if hm.TotalTime < base.TotalTime {
			t.Fatalf("%s: HMMS faster than compute-only baseline", tc.name)
		}
		if hm.Degradation() > 0.06 {
			t.Fatalf("%s: HMMS degradation %.1f%%, want < 6%%", tc.name, hm.Degradation()*100)
		}
		if lw.Degradation() < 2*hm.Degradation() {
			t.Fatalf("%s: layer-wise %.1f%% should be well above HMMS %.1f%%",
				tc.name, lw.Degradation()*100, hm.Degradation()*100)
		}
		if hm.OffloadedBytes < lw.OffloadedBytes {
			t.Fatalf("%s: HMMS offloaded less (%d) than layer-wise (%d)",
				tc.name, hm.OffloadedBytes, lw.OffloadedBytes)
		}
	}
}

func TestTimelineSpans(t *testing.T) {
	m := models.VGG19ImageNet(8)
	res, prog, _, err := sim.PlanAndRun(m.Graph, costmodel.P100(), sim.MethodHMMS, -1)
	if err != nil {
		t.Fatal(err)
	}
	var compute, copies int
	for _, s := range res.Spans {
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
		switch s.Stream {
		case "compute":
			compute++
		case "offload", "prefetch":
			copies++
		default:
			t.Fatalf("unknown stream %q", s.Stream)
		}
	}
	if compute != len(prog.Ops) {
		t.Fatalf("compute spans %d, want %d", compute, len(prog.Ops))
	}
	if copies == 0 {
		t.Fatal("no copy spans despite offloading")
	}
	// Compute spans must be contiguous and non-overlapping in order.
	var last float64
	for _, s := range res.Spans {
		if s.Stream != "compute" {
			continue
		}
		if s.Start < last {
			t.Fatalf("compute span %q starts before previous ends", s.Name)
		}
		last = s.End
	}
}

// TestSplitReducesDeviceMemory: at the same batch size, Split-CNN+HMMS
// plans less device memory than the unsplit baseline (the Figure 10
// mechanism), at no meaningful throughput cost.
func TestSplitReducesDeviceMemory(t *testing.T) {
	batch := 64
	m := models.VGG19ImageNet(batch)
	base, _, baseMem, err := sim.PlanAndRun(m.Graph, costmodel.P100(), sim.MethodNone, -1)
	if err != nil {
		t.Fatal(err)
	}
	split, err := core.Split(m.Graph, core.Config{Depth: 0.75, NH: 2, NW: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp, _, spMem, err := sim.PlanAndRun(split.Graph, costmodel.P100(), sim.MethodHMMS, -1)
	if err != nil {
		t.Fatal(err)
	}
	if spMem.DeviceBytes() >= baseMem.DeviceBytes()*2/3 {
		t.Fatalf("split+HMMS device bytes %d not well below baseline %d",
			spMem.DeviceBytes(), baseMem.DeviceBytes())
	}
	if sp.Degradation() > 0.08 {
		t.Fatalf("split+HMMS degradation %.1f%%", sp.Degradation()*100)
	}
	_ = base
}

// TestRunRejectsMalformedEntries: both simulators reject, through
// hmms.(*OffloadPlan).Check, an HMMS plan whose first entry is edited
// out of shape — including prefetches issued after the last op or
// synchronized past it, which would otherwise be dropped silently.
func TestRunRejectsMalformedEntries(t *testing.T) {
	m := models.VGG19ImageNet(32)
	prog, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hmms.PlanOffload(prog, hmms.AssignStorage(prog, hmms.DefaultStorageOpts()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(prog, plan, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Replay(prog, plan, nil, 0); err != nil {
		t.Fatal(err)
	}
	// withFirst is plan with its first entry replaced by entries.
	withFirst := func(entries ...*hmms.OffloadEntry) *hmms.OffloadPlan {
		p := *plan
		p.Entries = append(entries, plan.Entries[1:]...)
		return &p
	}
	edit := func(f func(e *hmms.OffloadEntry)) *hmms.OffloadPlan {
		e := *plan.Entries[0]
		f(&e)
		return withFirst(&e)
	}
	n := len(prog.Ops) // 92
	for name, bad := range map[string]*hmms.OffloadPlan{
		"sync before offload":   edit(func(e *hmms.OffloadEntry) { e.OffloadAtOp, e.SyncAtOp = 5, 2 }),
		"negative offload":      edit(func(e *hmms.OffloadEntry) { e.OffloadAtOp = -1 }),
		"sync past the last op": edit(func(e *hmms.OffloadEntry) { e.SyncAtOp = n }),
		"negative prefetch":     edit(func(e *hmms.OffloadEntry) { e.PrefetchAtOp, e.SyncBeforeOp = -2, -1 }),
		"prefetch past the last op": edit(func(e *hmms.OffloadEntry) {
			e.PrefetchAtOp, e.SyncBeforeOp = n+3, n+4
		}),
		"prefetch synchronized past the last op": edit(func(e *hmms.OffloadEntry) {
			e.PrefetchAtOp, e.SyncBeforeOp = 5, n+7
		}),
		"prefetch synchronized before issue": edit(func(e *hmms.OffloadEntry) { e.SyncBeforeOp = e.PrefetchAtOp - 1 }),
		"no bytes":                           edit(func(e *hmms.OffloadEntry) { e.Bytes = 0 }),
		"negative TSO":                       edit(func(e *hmms.OffloadEntry) { e.TSO = -1 }),
		"TSO planned twice":                  withFirst(plan.Entries[0], plan.Entries[0]),
	} {
		_, runErr := sim.Run(prog, bad, nil)
		_, replayErr := sim.Replay(prog, bad, nil, 0)
		if runErr == nil || replayErr == nil {
			t.Errorf("%s (%+v): Run error %v, Replay error %v", name, *bad.Entries[0], runErr, replayErr)
		}
	}
}

func TestMethodString(t *testing.T) {
	if sim.MethodNone.String() != "baseline" || sim.MethodLayerWise.String() != "layer-wise" || sim.MethodHMMS.String() != "hmms" {
		t.Fatal("method names changed")
	}
}
