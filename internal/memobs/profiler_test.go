package memobs

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// burn spins hot enough for the 100 Hz CPU sampler to land samples.
func burn(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*1.000000001 + 1e-9
		}
	}
	return x
}

// TestParsePprofLabeled captures a real labeled CPU profile and checks
// the hand-rolled protobuf parser recovers sample types, leaf
// functions, and the op labels the per-op join depends on.
func TestParsePprofLabeled(t *testing.T) {
	cpuProfileMu.Lock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		cpuProfileMu.Unlock()
		t.Skipf("cpu profile unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("op", "conv_test"), func(context.Context) {
		burn(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	cpuProfileMu.Unlock()

	prof, err := parsePprof(buf.Bytes())
	if err != nil {
		t.Fatalf("parsePprof: %v", err)
	}
	if idx := prof.typeIndex("cpu"); idx < 0 {
		t.Fatalf("no cpu sample type in %v", prof.sampleTypes)
	}
	if len(prof.samples) == 0 {
		t.Fatal("no samples captured")
	}
	labeled := false
	for _, s := range prof.samples {
		if s.labels["op"] == "conv_test" {
			labeled = true
			if len(s.locs) == 0 {
				t.Fatal("labeled sample has no locations")
			}
			if prof.leafFunc[s.locs[0]] == "" {
				t.Fatal("labeled sample's leaf has no function name")
			}
		}
	}
	if !labeled {
		t.Fatal("no sample carried the op label")
	}

	rep, err := buildReport(buf.Bytes(), nil, 300*time.Millisecond, 30)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if rep.CPUSeconds <= 0 {
		t.Fatalf("CPUSeconds = %g, want > 0", rep.CPUSeconds)
	}
	found := false
	for _, o := range rep.Ops {
		if o.Op == "conv_test" && o.CPUSeconds > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-op attribution missing conv_test: %+v", rep.Ops)
	}
}

// TestProfilerWindow captures one window while a graph runs and checks
// the capture turned op labels on: the ops' CPU lands on their names.
func TestProfilerWindow(t *testing.T) {
	g := graph.New()
	cur := g.Input("x", tensor.Shape{1, 1 << 16})
	for _, name := range []string{"r0", "r1", "r2", "r3"} {
		cur = g.Add(name, nn.ReLU{}, cur)
	}
	g.SetOutput(cur)
	ex, err := graph.NewExecutor(g, graph.NewParamStore())
	if err != nil {
		t.Fatal(err)
	}
	feeds := graph.Feeds{"x": tensor.New(1, 1<<16)}
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := ex.Forward(feeds); err != nil {
				done <- err
				return
			}
		}
	}()
	rep, err := Capture(context.Background(), 300*time.Millisecond)
	close(stop)
	if ferr := <-done; ferr != nil {
		t.Fatal(ferr)
	}
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if rep.CPUSeconds <= 0 || len(rep.Funcs) == 0 || len(rep.CPUProfile) == 0 {
		t.Fatalf("report lacks CPU, functions or the raw profile: %+v", rep)
	}
	if rep.WindowSeconds < 0.3 {
		t.Errorf("window %gs, want at least 0.3s", rep.WindowSeconds)
	}
	var opCPU float64
	for _, o := range rep.Ops {
		if strings.HasPrefix(o.Op, "r") && len(o.Op) == 2 {
			opCPU += o.CPUSeconds
		}
	}
	if opCPU <= 0 {
		t.Fatalf("no CPU attributed to the graph's ops: %+v", rep.Ops)
	}
}

// TestCaptureBusyAndCancel: a capture fails with ErrBusy while another
// holds the CPU profiler, and a cancelled context ends its window.
func TestCaptureBusyAndCancel(t *testing.T) {
	cpuProfileMu.Lock()
	_, err := Capture(context.Background(), time.Second)
	cpuProfileMu.Unlock()
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("capture under a held profiler: %v, want ErrBusy", err)
	}

	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	_, err = Capture(context.Background(), time.Second)
	pprof.StopCPUProfile()
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("capture beside a running CPU profile: %v, want ErrBusy", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep, err := Capture(ctx, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second || rep.WindowSeconds > 10 {
		t.Fatalf("a cancelled capture took %v (window %gs)", d, rep.WindowSeconds)
	}
}

// FuzzParsePprof: no byte string panics the profile decoder or the
// report built from what it accepts. The seeds are a CPU profile whose
// samples carry an op label and a heap profile, both taken in-process.
func FuzzParsePprof(f *testing.F) {
	cpuProfileMu.Lock()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err == nil {
		pprof.Do(context.Background(), pprof.Labels("op", "conv_seed"), func(context.Context) {
			burn(50 * time.Millisecond)
		})
		pprof.StopCPUProfile()
	}
	cpuProfileMu.Unlock()
	var heap bytes.Buffer
	pprof.Lookup("heap").WriteTo(&heap, 0) //nolint:errcheck
	f.Add(cpu.Bytes(), heap.Bytes())
	// The same profiles unzipped, so mutations reach the protobuf
	// decoder rather than the gzip reader.
	raw := func(b []byte) []byte {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			f.Fatal(err)
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	f.Add(raw(cpu.Bytes()), raw(heap.Bytes()))
	// A string-table field whose length varint is 2⁶⁴−1, negative as an
	// int: the bounds check must compare it unsigned.
	f.Add([]byte{0x32, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte(nil))
	f.Fuzz(func(t *testing.T, cpuProf, heapProf []byte) {
		if _, err := parsePprof(cpuProf); err != nil {
			return
		}
		if _, err := buildReport(cpuProf, heapProf, time.Second, topFuncs); err != nil {
			t.Fatalf("buildReport rejects a profile parsePprof accepts: %v", err)
		}
	})
}
