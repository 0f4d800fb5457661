package memobs

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// compileArch lowers a scaled-down bundled architecture through
// graph.Compile in inference mode, the way the serving path does, at
// batch archBatch.
func compileArch(t *testing.T, arch string, hw int) (*graph.CompiledProgram, graph.Feeds) {
	t.Helper()
	m, err := models.Build(arch, models.Config{
		BatchSize: archBatch, Classes: 10, InputC: 3, InputH: hw, InputW: hw,
		WidthDiv: 16, BatchNorm: true,
	})
	if err != nil {
		t.Fatalf("build %s: %v", arch, err)
	}
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rand.New(rand.NewSource(1)), nn.KaimingInit)
	m.Graph.SetTraining(false)
	m.Graph.SetOutput(m.Logits)
	prog, err := graph.Compile(m.Graph, store, graph.CompileOptions{})
	if err != nil {
		t.Fatalf("compile %s: %v", arch, err)
	}
	return prog, graph.Feeds{
		"image":  tensor.New(archBatch, 3, hw, hw),
		"labels": tensor.New(archBatch),
	}
}

const archBatch = 3

// TestMeasuredNeverExceedsPlan pins the hard invariant for every
// bundled architecture and every live batch n ≤ B: under compiled
// inference, the slab bytes each step actually references never exceed
// the plan's live bytes, nothing is written past the planned slab, and
// the drift ratio is finite. A prefix pass reports the bytes it touched,
// so a larger live batch references strictly more of the slab.
func TestMeasuredNeverExceedsPlan(t *testing.T) {
	for _, arch := range models.Architectures() {
		t.Run(arch, func(t *testing.T) {
			hw := 32
			if arch == "alexnet" {
				hw = 64 // alexnet's pool stack needs a larger input
			}
			prog, full := compileArch(t, arch, hw)
			c := AttachCompiled(prog)
			var prevRef int64
			for n := 1; n <= archBatch; n++ {
				feeds := graph.Feeds{
					"image":  tensor.Wrap(full["image"].Data()[:n*3*hw*hw], n, 3, hw, hw),
					"labels": tensor.Wrap(full["labels"].Data()[:n], n),
				}
				for pass := 0; pass < 3; pass++ {
					if _, err := prog.Forward(feeds); err != nil {
						t.Fatalf("n=%d forward pass %d: %v", n, pass, err)
					}
				}
				tl := c.Timeline()
				if tl.Source != "compiled" {
					t.Fatalf("source = %q, want compiled", tl.Source)
				}
				if got, want := int(tl.Passes), 3*n; got != want {
					t.Fatalf("passes = %d, want %d", got, want)
				}
				if len(tl.Samples) != prog.Steps() {
					t.Fatalf("samples = %d, want %d steps", len(tl.Samples), prog.Steps())
				}
				if err := tl.Verify(); err != nil {
					t.Fatalf("n=%d Verify: %v", n, err)
				}
				if err := tl.CheckAgainstPlan(); err != nil {
					t.Fatalf("n=%d CheckAgainstPlan: %v", n, err)
				}
				max, at := tl.DriftMax()
				if max <= 0 || math.IsInf(max, 0) || math.IsNaN(max) {
					t.Fatalf("n=%d drift max = %g at %q, want finite > 0", n, max, at)
				}
				if gm := tl.DriftGeomean(); gm <= 0 || math.IsInf(gm, 0) || math.IsNaN(gm) {
					t.Fatalf("n=%d drift geomean = %g, want finite > 0", n, gm)
				}
				var ref int64
				for _, s := range tl.Samples {
					ref += s.SlabRefBytes
				}
				if ref <= prevRef {
					t.Fatalf("n=%d references %d slab bytes over the pass, no more than n=%d's %d", n, ref, n-1, prevRef)
				}
				prevRef = ref
			}
		})
	}
}

// TestVerifyRejectsCorruption: a tampered timeline must not pass the
// self-verification the report builder gates on.
func TestVerifyRejectsCorruption(t *testing.T) {
	prog, feeds := compileArch(t, "vgg16", 32)
	c := AttachCompiled(prog)
	if _, err := prog.Forward(feeds); err != nil {
		t.Fatal(err)
	}
	good := c.Timeline()
	if err := good.Verify(); err != nil {
		t.Fatalf("clean timeline failed Verify: %v", err)
	}

	t.Run("step indices", func(t *testing.T) {
		tl := c.Timeline()
		tl.Samples[1].Step = 7
		if err := tl.Verify(); err == nil || !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("Verify = %v, want corrupted-timeline error", err)
		}
	})
	t.Run("above high water", func(t *testing.T) {
		tl := c.Timeline()
		tl.Samples[0].MeasuredBytes = tl.MeasuredHighWater + 1
		if err := tl.Verify(); err == nil || !strings.Contains(err.Error(), "high water") {
			t.Fatalf("Verify = %v, want high-water error", err)
		}
	})
	t.Run("negative bytes", func(t *testing.T) {
		tl := c.Timeline()
		tl.Samples[0].PlannedBytes = -5
		if err := tl.Verify(); err == nil {
			t.Fatal("Verify accepted negative planned bytes")
		}
	})
	t.Run("slab over plan", func(t *testing.T) {
		tl := c.Timeline()
		tl.Samples[0].SlabRefBytes = tl.Samples[0].PlannedBytes + 4
		if err := tl.CheckAgainstPlan(); err == nil {
			t.Fatal("CheckAgainstPlan accepted slab ref above planned live bytes")
		}
	})
}

// TestTimelineRecord checks the gauge family the runtime sampler
// publishes from a timeline snapshot.
func TestTimelineRecord(t *testing.T) {
	prog, feeds := compileArch(t, "resnet18", 32)
	c := AttachCompiled(prog)
	if _, err := prog.Forward(feeds); err != nil {
		t.Fatal(err)
	}
	tl := c.Timeline()
	met := trace.NewMetrics()
	tl.Record(met)
	if got := met.Gauge("mem.measured_high_water_bytes").Value(); int64(got) != tl.MeasuredHighWater {
		t.Fatalf("mem.measured_high_water_bytes = %g, want %d", got, tl.MeasuredHighWater)
	}
	if got := met.Gauge("mem.planned_slab_bytes").Value(); int64(got) != tl.PlannedSlabBytes {
		t.Fatalf("mem.planned_slab_bytes = %g, want %d", got, tl.PlannedSlabBytes)
	}
	max, _ := tl.DriftMax()
	if got := met.Gauge("mem.drift_ratio.max").Value(); got != max {
		t.Fatalf("mem.drift_ratio.max = %g, want %g", got, max)
	}
	// One per-op drift gauge per planned step.
	for _, s := range tl.Samples {
		if s.PlannedBytes > 0 {
			if got := met.Gauge("mem.drift_ratio." + s.Name).Value(); got <= 0 {
				t.Fatalf("mem.drift_ratio.%s = %g, want > 0", s.Name, got)
			}
			break
		}
	}
}
