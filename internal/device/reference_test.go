package device

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceRun is the list scheduler the event-driven Run replaced, kept
// as the oracle Run is checked against. Its body is the old Run's, with
// the stream map and the (stream, index)-keyed alloc/free maps read
// through the slices and item fields that replaced them: after every
// link grant it rescans all streams to a fixpoint, O(items · streams)
// per grant.
func referenceRun(d *Device) (*Trace, error) {
	heads := map[StreamID]int{}
	streamFree := map[StreamID]float64{}
	eventDone := map[EventID]float64{}
	eventKnown := map[EventID]bool{}
	var linkFree float64
	tr := &Trace{}
	var mem, peak int64
	remaining := 0
	streamIDs := make([]StreamID, len(d.streams))
	for s := range d.streams {
		streamIDs[s] = StreamID(s)
		remaining += len(d.streams[s])
	}

	type memEvent struct {
		t     float64
		delta int64
	}
	var memEvents []memEvent

	retire := func(s StreamID, start, end float64, it workItem) {
		if it.kind == kindKernel || it.kind == kindCopy {
			tr.Spans = append(tr.Spans, Span{Stream: s, Label: it.label, Start: start, End: end})
			if d.Recorder != nil {
				d.Recorder.Span(StreamName(s), it.label, start, end)
			}
			if a := it.alloc; a != 0 {
				memEvents = append(memEvents, memEvent{start, a})
			}
			if f := it.free; f != 0 {
				memEvents = append(memEvents, memEvent{end, -f})
			}
		}
		streamFree[s] = end
		heads[s]++
		remaining--
	}

	for remaining > 0 {
		// Phase 1: retire every head item that does not contend for the
		// link (kernels, records, satisfiable waits), to a fixpoint.
		progressed := true
		for progressed {
			progressed = false
			for _, s := range streamIDs {
				idx := heads[s]
				q := d.streams[s]
				if idx >= len(q) {
					continue
				}
				it := q[idx]
				ready := streamFree[s]
				switch it.kind {
				case kindWait:
					if eventKnown[it.event] {
						retire(s, ready, max(ready, eventDone[it.event]), it)
						progressed = true
					}
				case kindRecord:
					eventDone[it.event] = ready
					eventKnown[it.event] = true
					retire(s, ready, ready, it)
					progressed = true
				case kindKernel:
					retire(s, ready, ready+it.duration, it)
					progressed = true
				}
			}
		}
		if remaining == 0 {
			break
		}
		// Phase 2: the link is a shared FIFO resource — grant it to the
		// head copy that becomes ready earliest.
		bestStream := StreamID(-1)
		bestReady := 0.0
		for _, s := range streamIDs {
			idx := heads[s]
			q := d.streams[s]
			if idx >= len(q) || q[idx].kind != kindCopy {
				continue
			}
			if bestStream < 0 || streamFree[s] < bestReady {
				bestStream, bestReady = s, streamFree[s]
			}
		}
		if bestStream < 0 {
			return nil, fmt.Errorf("device: deadlock — circular event waits among streams")
		}
		it := d.streams[bestStream][heads[bestStream]]
		start := max(bestReady, linkFree)
		end := start + float64(it.bytes)/d.LinkBandwidth
		linkFree = end
		retire(bestStream, start, end, it)
	}
	var busy float64
	for _, sp := range tr.Spans {
		if sp.End > tr.Total {
			tr.Total = sp.End
		}
		if sp.Stream == ComputeStream {
			busy += sp.End - sp.Start
		}
	}
	if tr.Total > 0 {
		tr.ComputeBusy = busy / tr.Total
	}
	sort.SliceStable(memEvents, func(i, j int) bool {
		if memEvents[i].t != memEvents[j].t {
			return memEvents[i].t < memEvents[j].t
		}
		// frees before allocations at equal times
		return memEvents[i].delta < memEvents[j].delta
	})
	for _, e := range memEvents {
		mem += e.delta
		if mem > peak {
			peak = mem
		}
	}
	tr.PeakMemory = peak
	if d.MemCapacity > 0 && peak > d.MemCapacity {
		return tr, fmt.Errorf("device: peak memory %d exceeds capacity %d", peak, d.MemCapacity)
	}
	sort.SliceStable(tr.Spans, func(i, j int) bool { return tr.Spans[i].Start < tr.Spans[j].Start })
	return tr, nil
}

// program decodes a byte string into a stream program on a 100 B/s
// link. The first byte sets the number of memory streams (1–4) and,
// when its top bit is set, a memory capacity of 16–128 bytes. Every
// following pair of bytes (op, arg) enqueues one item; op%16 picks its
// kind and op>>4 its stream:
//
//   - 0–5: a kernel of arg%8 quarter seconds (zero-length and equal
//     durations included, so ready times tie);
//   - 6–9: a copy of 25·(arg%8) bytes (0-byte copies included) on a
//     memory stream;
//   - 10–13: a Record;
//   - 14–15: a Wait, for an event arg%16 picks: 0–12 one already
//     recorded, arg>>4 back (forward; ID -1 while none is), 13–14 one
//     of the next two to be recorded (backward, possibly a cycle), 15
//     one 1000 records ahead (never recorded).
//
// A kernel or copy with arg&0x08 set allocates (arg>>4&7)+1 bytes when
// it starts; one with arg&0x80 set frees the oldest allocation not yet
// freed when it completes.
func program(data []byte) *Device {
	d := New(100)
	if len(data) == 0 {
		return d
	}
	streams := []StreamID{ComputeStream}
	for range 1 + int(data[0])%4 {
		streams = append(streams, d.NewStream())
	}
	if data[0]&0x80 != 0 {
		d.MemCapacity = 16 * (int64(data[0]>>4&7) + 1)
	}
	var live []int64 // allocations not yet freed, oldest first
	data = data[1:]
	for i := 0; len(data) >= 2; i, data = i+1, data[2:] {
		op, arg := data[0], data[1]
		s := streams[int(op>>4)%len(streams)]
		var h Handle
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			h = d.Launch(fmt.Sprintf("k%d", i), float64(arg%8)/4)
		case 6, 7, 8, 9:
			m := streams[1+int(op>>4)%(len(streams)-1)]
			h = d.Copy(m, fmt.Sprintf("c%d", i), 25*int64(arg%8))
		case 10, 11, 12, 13:
			d.Record(s)
			continue
		default:
			ev := d.nextEvent + 1000
			switch k := EventID(arg % 16); {
			case k <= 12:
				ev = d.nextEvent - 1 - EventID(arg>>4)%max(d.nextEvent, 1)
			case k <= 14:
				ev = d.nextEvent + k - 13
			}
			d.Wait(s, ev)
			continue
		}
		if arg&0x08 != 0 {
			n := int64(arg>>4&7) + 1
			d.AllocAt(h, n)
			live = append(live, n)
		}
		if arg&0x80 != 0 && len(live) > 0 {
			d.FreeAt(h, live[0])
			live = live[1:]
		}
	}
	return d
}

// sameRun runs the program data encodes through Run and referenceRun
// and fails unless both fail, or both return bit-identical traces. It
// reports whether the run succeeded.
func sameRun(t *testing.T, data []byte) bool {
	t.Helper()
	d := program(data)
	want, wantErr := referenceRun(d)
	got, gotErr := d.Run()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("program %x: reference error %v, Run error %v", data, wantErr, gotErr)
	}
	if (want == nil) != (got == nil) {
		t.Fatalf("program %x: reference trace %v, Run trace %v", data, want, got)
	}
	if want == nil {
		return false
	}
	if got.Total != want.Total || got.PeakMemory != want.PeakMemory || got.ComputeBusy != want.ComputeBusy {
		t.Fatalf("program %x: Run (total %v, peak %d, busy %v), reference (total %v, peak %d, busy %v)",
			data, got.Total, got.PeakMemory, got.ComputeBusy, want.Total, want.PeakMemory, want.ComputeBusy)
	}
	// Stricter than equal span multisets: both retire kernels and copies
	// in the same order (kernels only run on the compute stream, copies
	// one link grant at a time), so the stably sorted lists match too.
	if !slices.Equal(got.Spans, want.Spans) {
		t.Fatalf("program %x: spans differ\nRun:       %v\nreference: %v", data, got.Spans, want.Spans)
	}
	return wantErr == nil
}

// TestRunMatchesReference: on seeded random stream programs — kernels,
// copies, records, forward and backward cross-stream waits, tied ready
// times, memory bookkeeping and capacity limits — the event-driven Run
// returns exactly what the old list scheduler returns, and fails
// exactly when it fails.
func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ok, failed := 0, 0
	for range 1000 {
		data := make([]byte, 1+rng.Intn(120))
		rng.Read(data)
		if sameRun(t, data) {
			ok++
		} else {
			failed++
		}
	}
	t.Logf("%d programs ran, %d failed", ok, failed)
	// Both outcomes must be exercised for the comparison to mean much.
	if ok < 200 || failed < 100 {
		t.Fatalf("%d programs ran and %d failed; the generator no longer covers both", ok, failed)
	}
}

var (
	// cycleProgram: compute waits on event 1, then records event 0;
	// mem1 waits on event 0, then records event 1.
	cycleProgram = []byte{0, 0x0e, 0x0e, 0x0a, 0x00, 0x1e, 0x00, 0x1a, 0x00}
	// unrecordedProgram: mem1 waits on an event no stream records, then
	// copies.
	unrecordedProgram = []byte{0, 0x1e, 0x0f, 0x06, 0x04}
)

// TestRunMatchesReferenceOnDeadlocks: both schedulers fail on a genuine
// cycle of waits and on a wait for an event that is never recorded.
func TestRunMatchesReferenceOnDeadlocks(t *testing.T) {
	for _, data := range [][]byte{cycleProgram, unrecordedProgram} {
		if sameRun(t, data) {
			t.Fatalf("program %x ran", data)
		}
	}
}

// FuzzRun is TestRunMatchesReference over arbitrary programs. Its seeds,
// which plain `go test` runs, name the shapes the random programs must
// keep covering.
func FuzzRun(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0},
		// A kernel, a copy on mem1, and a 0-byte copy on mem2 tied with it.
		{1, 0x00, 0x04, 0x06, 0x04, 0x16, 0x00},
		// Compute records after a kernel; mem1 waits on it (forward), then
		// copies.
		{0, 0x00, 0x04, 0x0a, 0x00, 0x1e, 0x00, 0x06, 0x04},
		// mem1 waits on the next event (backward), which compute records
		// after a kernel; compute then waits on mem1's record.
		{0, 0x1e, 0x0d, 0x06, 0x04, 0x00, 0x04, 0x0a, 0x00, 0x1a, 0x00, 0x0e, 0x00},
		cycleProgram,
		unrecordedProgram,
		// A kernel and a copy each allocate 8 bytes at t=0, filling a
		// 16-byte capacity; a third allocation at t=1 exceeds it.
		{0x80, 0x00, 0x7c, 0x06, 0x7c, 0x00, 0xfc},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { sameRun(t, data) })
}
