package device_test

import (
	"fmt"
	"math"
	"testing"

	"splitcnn/internal/device"
)

func approx(t *testing.T, got, want float64, what string) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func TestKernelsRunBackToBack(t *testing.T) {
	d := device.New(1e9)
	d.Launch("a", 1)
	d.Launch("b", 2)
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tr.Total, 3, "total")
	approx(t, tr.ComputeBusy, 1, "busy")
	if len(tr.Spans) != 2 || tr.Spans[1].Start != 1 {
		t.Fatalf("spans %+v", tr.Spans)
	}
}

func TestCopyOverlapsCompute(t *testing.T) {
	d := device.New(100) // 100 B/s
	m := d.NewStream()
	d.Copy(m, "x", 200) // 2 s
	d.Launch("k", 3)
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Copy and kernel overlap fully: total 3 s.
	approx(t, tr.Total, 3, "total")
}

func TestWaitStallsCompute(t *testing.T) {
	d := device.New(100)
	m := d.NewStream()
	d.Copy(m, "x", 500) // 5 s
	ev := d.Record(m)
	d.Launch("k1", 1)
	d.Wait(device.ComputeStream, ev)
	d.Launch("k2", 1)
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	// k2 cannot start before the copy completes at t=5.
	approx(t, tr.Total, 6, "total")
}

func TestLinkIsSharedFIFO(t *testing.T) {
	d := device.New(100)
	m1 := d.NewStream()
	m2 := d.NewStream()
	d.Copy(m1, "a", 100) // 1 s
	d.Copy(m2, "b", 100) // must queue: 1..2 s
	ev := d.Record(m2)
	d.Wait(device.ComputeStream, ev)
	d.Launch("k", 0.5)
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tr.Total, 2.5, "total")
}

func TestLinkGrantsEarliestReadyCopy(t *testing.T) {
	d := device.New(100)
	slow := d.NewStream()
	fast := d.NewStream()
	// The slow stream's copy only becomes ready at t=3 (waits on a
	// kernel event); the fast stream's is ready immediately. The fast
	// one must win the link even if the slow stream was created first.
	d.Launch("k", 3)
	ev := d.Record(device.ComputeStream)
	d.Wait(slow, ev)
	d.Copy(slow, "late", 100)
	d.Copy(fast, "early", 100)
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	var early, late device.Span
	for _, s := range tr.Spans {
		switch s.Label {
		case "early":
			early = s
		case "late":
			late = s
		}
	}
	approx(t, early.Start, 0, "early copy start")
	approx(t, late.Start, 3, "late copy start")
}

func TestCrossStreamEventChain(t *testing.T) {
	d := device.New(1000)
	m1 := d.NewStream()
	m2 := d.NewStream()
	d.Launch("k1", 1)
	e1 := d.Record(device.ComputeStream)
	d.Wait(m1, e1)
	d.Copy(m1, "c1", 1000) // t=1..2
	e2 := d.Record(m1)
	d.Wait(m2, e2)
	d.Copy(m2, "c2", 1000) // t=2..3
	e3 := d.Record(m2)
	d.Wait(device.ComputeStream, e3)
	d.Launch("k2", 1) // t=3..4
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tr.Total, 4, "total")
}

func TestMemoryAccounting(t *testing.T) {
	d := device.New(1e9)
	h1 := d.Launch("a", 1)
	d.AllocAt(h1, 100)
	h2 := d.Launch("b", 1)
	d.AllocAt(h2, 50)
	d.FreeAt(h2, 150)
	h3 := d.Launch("c", 1)
	d.AllocAt(h3, 30)
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tr.PeakMemory != 150 {
		t.Fatalf("peak %d, want 150", tr.PeakMemory)
	}
}

func TestCapacityEnforced(t *testing.T) {
	d := device.New(1e9)
	d.MemCapacity = 100
	h := d.Launch("a", 1)
	d.AllocAt(h, 200)
	if _, err := d.Run(); err == nil {
		t.Fatal("capacity violation not reported")
	}
}

// TestDeadlockDetected: a genuine cycle of waits and a wait on an event
// no stream records are errors, never a panic or a trace.
func TestDeadlockDetected(t *testing.T) {
	t.Run("cycle", func(t *testing.T) {
		d := device.New(1e9)
		m := d.NewStream()
		// Event IDs are handed out in Record order, so the compute
		// stream can wait on event 1 before anything records it.
		d.Wait(device.ComputeStream, device.EventID(1))
		e0 := d.Record(device.ComputeStream)
		d.Wait(m, e0)
		if e1 := d.Record(m); e1 != 1 {
			t.Fatalf("second event is %d, want 1", e1)
		}
		d.Launch("k", 1)
		if tr, err := d.Run(); err == nil {
			t.Fatalf("cycle not detected: %+v", tr)
		}
	})
	for _, ev := range []device.EventID{41, -1} {
		t.Run(fmt.Sprintf("unrecorded event %d", ev), func(t *testing.T) {
			d := device.New(1e9)
			m := d.NewStream()
			d.Record(device.ComputeStream)
			d.Wait(m, ev)
			d.Copy(m, "c", 10)
			if tr, err := d.Run(); err == nil {
				t.Fatalf("wait on unrecorded event %d not detected: %+v", ev, tr)
			}
		})
	}
}

func TestComputeBusyFraction(t *testing.T) {
	d := device.New(100)
	m := d.NewStream()
	d.Copy(m, "x", 300) // 3 s
	ev := d.Record(m)
	d.Wait(device.ComputeStream, ev)
	d.Launch("k", 1) // runs 3..4
	tr, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tr.ComputeBusy, 0.25, "busy")
}
