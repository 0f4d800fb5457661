package sim_test

import (
	"math"
	"slices"
	"sort"
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/costmodel"
	"splitcnn/internal/device"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/sim"
)

// TestReplayMatchesAnalyticRun: the discrete-event device replay and the
// analytic simulator must agree on step time for every scheduling method
// — they model the same machine at different granularities.
func TestReplayMatchesAnalyticRun(t *testing.T) {
	for _, build := range []func(int) *models.Model{
		models.VGG19ImageNet, models.ResNet50ImageNet,
	} {
		m := build(32)
		prog, err := hmms.BuildProgram(m.Graph, costmodel.P100())
		if err != nil {
			t.Fatal(err)
		}
		assign := hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
		limit := prog.TheoreticalOffloadLimit()
		plans := []*hmms.OffloadPlan{hmms.PlanNone()}
		if p, err := hmms.PlanLayerWise(prog, assign, limit); err == nil {
			plans = append(plans, p)
		} else {
			t.Fatal(err)
		}
		if p, err := hmms.PlanOffload(prog, assign, limit); err == nil {
			plans = append(plans, p)
		} else {
			t.Fatal(err)
		}
		for _, plan := range plans {
			analytic, err := sim.Run(prog, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := sim.Replay(prog, plan, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(trace.Total-analytic.TotalTime) / analytic.TotalTime; rel > 1e-6 {
				t.Fatalf("%s/%s: device replay %.6f s vs analytic %.6f s (rel %.2g)",
					m.Name, plan.Method, trace.Total, analytic.TotalTime, rel)
			}
		}
	}
}

// TestReplayPaperScalePinned pins the device replay of two split
// paper-scale HMMS plans bit for bit, and requires it to equal the
// analytic step time exactly.
func TestReplayPaperScalePinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model *models.Model
		total float64
		peak  int64
		spans int
	}{
		{"resnet50/b32/split", models.ResNet50ImageNet(32), 0.1324671276196365, 1415988416, 1662},
		{"vgg19/b64/split", models.VGG19ImageNet(64), 0.5239079228479069, 2623308096, 420},
	} {
		sr, err := core.Split(tc.model.Graph, core.Config{Depth: 0.75, NH: 2, NW: 2})
		if err != nil {
			t.Fatal(err)
		}
		dev := costmodel.P100()
		prog, plan, mem, err := sim.Plan(sr.Graph, dev, sim.MethodHMMS, -1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(prog, plan, mem)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sim.Replay(prog, plan, mem, dev.MemCapacity)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Total != tc.total || tr.PeakMemory != tc.peak || len(tr.Spans) != tc.spans {
			t.Errorf("%s: replay total %v, peak %d B, %d spans; want %v, %d B, %d spans",
				tc.name, tr.Total, tr.PeakMemory, len(tr.Spans), tc.total, tc.peak, tc.spans)
		}
		if tr.Total != res.TotalTime {
			t.Errorf("%s: replay total %v != analytic %v", tc.name, tr.Total, res.TotalTime)
		}
	}
}

// spanLog is a trace.Recorder that keeps every span it receives.
type spanLog []loggedSpan

type loggedSpan struct {
	stream, name string
	start, end   float64
}

func (l *spanLog) Span(stream, name string, start, end float64) {
	*l = append(*l, loggedSpan{stream, name, start, end})
}

// TestReplayTracedFeedsRecorder: the recorder behind `splitcnn trace
// -replay` receives exactly the returned trace's spans, one lane per
// stream — in execution order, which the trace's stable sort by start
// time reproduces.
func TestReplayTracedFeedsRecorder(t *testing.T) {
	m := models.VGG19ImageNet(32)
	prog, plan, mem, err := sim.Plan(m.Graph, costmodel.P100(), sim.MethodHMMS, -1)
	if err != nil {
		t.Fatal(err)
	}
	var got spanLog
	tr, err := sim.ReplayTraced(prog, plan, mem, 0, &got)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(got, func(i, j int) bool { return got[i].start < got[j].start })
	want := make(spanLog, len(tr.Spans))
	for i, sp := range tr.Spans {
		want[i] = loggedSpan{device.StreamName(sp.Stream), sp.Label, sp.Start, sp.End}
	}
	if len(want) <= len(prog.Ops) {
		t.Fatalf("%d spans for %d ops: no copies replayed", len(want), len(prog.Ops))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("recorder received %d spans, trace has %d, or they differ", len(got), len(want))
	}
}

// TestReplayOccupancyWithinPlannedPools: the time-resolved occupancy of
// the static plan never exceeds the planned pool sizes (first-fit may
// fragment, so pool >= occupancy), and the plan fits the device.
func TestReplayOccupancyWithinPlannedPools(t *testing.T) {
	m := models.VGG19ImageNet(32)
	prog, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	assign := hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
	plan, err := hmms.PlanOffload(prog, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := hmms.PlanMemory(prog, assign, plan, hmms.FirstFit)
	trace, err := sim.Replay(prog, plan, mem, costmodel.P100().MemCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if trace.PeakMemory <= 0 {
		t.Fatal("no occupancy recorded")
	}
	if trace.PeakMemory > mem.DeviceBytes() {
		t.Fatalf("occupancy %d exceeds planned pools %d", trace.PeakMemory, mem.DeviceBytes())
	}
}

// TestReplayComputeBusy: with the HMMS plan the compute stream stays
// essentially fully busy; the layer-wise plan leaves it idle during
// stalls.
func TestReplayComputeBusy(t *testing.T) {
	m := models.VGG19ImageNet(32)
	prog, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	assign := hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
	hm, err := hmms.PlanOffload(prog, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := hmms.PlanLayerWise(prog, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := sim.Replay(prog, hm, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := sim.Replay(prog, lw, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ht.ComputeBusy < 0.995 {
		t.Fatalf("HMMS compute busy %.3f, want ~1", ht.ComputeBusy)
	}
	if lt.ComputeBusy >= ht.ComputeBusy {
		t.Fatalf("layer-wise busy %.3f not below HMMS %.3f", lt.ComputeBusy, ht.ComputeBusy)
	}
}
