// Package device is a discrete-event model of the paper's execution
// platform: a GPU-class accelerator with one compute stream and several
// memory streams, attached to the host over a single shared link
// (NVLink). It is the detailed engine behind the fast analytical replay
// in internal/sim: where sim computes stall times arithmetically, this
// package executes an explicit event calendar, models per-stream FIFO
// queues with link arbitration, enforces device memory capacity against
// the static plan's pool occupancy over time, and emits exact stream
// timelines (the nvprof analogue of Figure 9).
//
// Terminology follows CUDA: work is issued to streams in order; a
// stream executes its items back-to-back; events record completion
// points; a stream may be told to wait on an event recorded on another
// stream (cudaStreamWaitEvent), which is how the offload plan's
// "synchronize compute with memory stream m" points are realized.
package device

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"splitcnn/internal/trace"
)

// StreamID identifies a stream. Stream 0 is always the compute stream.
type StreamID int

// ComputeStream is the stream kernels execute on.
const ComputeStream StreamID = 0

// EventID identifies a recorded event.
type EventID int

// itemKind discriminates work items.
type itemKind int

const (
	kindKernel itemKind = iota
	kindCopy
	kindRecord
	kindWait
)

// workItem is one entry of a stream's FIFO queue.
type workItem struct {
	kind     itemKind
	label    string
	duration float64 // kernels
	bytes    int64   // copies
	event    EventID // record / wait
	// alloc and free are device-memory deltas applied when the item
	// starts and completes (kernels and copies).
	alloc, free int64
}

// Device is a discrete-event accelerator model. Create one with New,
// enqueue work with Launch/Copy/Record/Wait, then call Run.
type Device struct {
	// LinkBandwidth is the host-link bandwidth in bytes/s shared by all
	// memory streams (copies arbitrate FIFO by issue order).
	LinkBandwidth float64
	// MemCapacity, when positive, bounds device memory; exceeding it
	// makes Run fail (used to validate static plans).
	MemCapacity int64
	// Recorder, when non-nil, receives every retired kernel and copy as
	// a span at execution time — the live feed behind the Chrome-trace
	// export of simulated timelines. Stream 0 maps to "compute", memory
	// streams to "mem<id>", one trace lane per CUDA-style stream.
	Recorder trace.Recorder

	// streams[s] is stream s's FIFO queue. Events are numbered in
	// Record order, so every recorded EventID is below nextEvent.
	streams   [][]workItem
	nextEvent EventID
}

// New returns a device with the given link bandwidth.
func New(linkBandwidth float64) *Device {
	return &Device{LinkBandwidth: linkBandwidth, streams: make([][]workItem, 1)}
}

// memStreamCap is the starting capacity of a memory stream's queue:
// room for one transfer's wait, copy and record without growing.
const memStreamCap = 4

// NewStream adds a memory stream and returns its ID.
func (d *Device) NewStream() StreamID {
	d.streams = append(d.streams, make([]workItem, 0, memStreamCap))
	return StreamID(len(d.streams) - 1)
}

func (d *Device) push(s StreamID, it workItem) Handle {
	if s < 0 || int(s) >= len(d.streams) {
		panic(fmt.Sprintf("device: unknown stream %d", s))
	}
	d.streams[s] = append(d.streams[s], it)
	return Handle{s, len(d.streams[s]) - 1}
}

// Launch enqueues a kernel of the given duration on the compute stream.
// It returns a handle usable with AllocAt/FreeAt.
func (d *Device) Launch(label string, duration float64) Handle {
	return d.push(ComputeStream, workItem{kind: kindKernel, label: label, duration: duration})
}

// Copy enqueues a host-link transfer on a memory stream.
func (d *Device) Copy(s StreamID, label string, bytes int64) Handle {
	if s == ComputeStream {
		panic("device: copies go to memory streams")
	}
	return d.push(s, workItem{kind: kindCopy, label: label, bytes: bytes})
}

// Record enqueues an event-record marker on a stream and returns the
// event.
func (d *Device) Record(s StreamID) EventID {
	ev := d.nextEvent
	d.nextEvent++
	d.push(s, workItem{kind: kindRecord, event: ev})
	return ev
}

// Wait enqueues a wait-for-event on a stream: later items on s do not
// start until the event has been recorded (completed) on its stream.
func (d *Device) Wait(s StreamID, ev EventID) {
	d.push(s, workItem{kind: kindWait, event: ev})
}

// Handle names one enqueued item for memory accounting.
type Handle struct {
	stream StreamID
	index  int
}

// AllocAt registers a device-memory allocation of n bytes taking effect
// when the item starts.
func (d *Device) AllocAt(h Handle, n int64) { d.streams[h.stream][h.index].alloc += n }

// FreeAt registers a device-memory release of n bytes taking effect when
// the item completes.
func (d *Device) FreeAt(h Handle, n int64) { d.streams[h.stream][h.index].free += n }

// StreamName renders a stream ID as a trace lane name: "compute" for
// the compute stream, "mem<id>" for memory streams.
func StreamName(s StreamID) string {
	if s == ComputeStream {
		return "compute"
	}
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], "mem"...), int64(s), 10))
}

// Span is one completed item on the timeline.
type Span struct {
	Stream StreamID
	Label  string
	Start  float64
	End    float64
}

// Trace is the outcome of Run.
type Trace struct {
	Spans []Span
	// Total is the completion time of the last item.
	Total float64
	// PeakMemory is the maximum device occupancy observed (only
	// meaningful when Alloc/Free bookkeeping was supplied).
	PeakMemory int64
	// ComputeBusy is the fraction of Total the compute stream executed
	// kernels.
	ComputeBusy float64
}

// linkRequest is a stream whose head item is a copy, ready to start at
// ready once the link is granted to it.
type linkRequest struct {
	ready  float64
	stream StreamID
}

func (r linkRequest) before(o linkRequest) bool {
	return r.ready < o.ready || r.ready == o.ready && r.stream < o.stream
}

// linkQueue is a binary min-heap of link requests: earliest ready
// first, lowest stream ID on ties. It is not a container/heap.Interface
// because that boxes every request pushed or popped into an allocation.
type linkQueue []linkRequest

func (q *linkQueue) push(r linkRequest) {
	h := append(*q, r)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	*q = h
}

func (q *linkQueue) pop() linkRequest {
	h := *q
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Run executes the event calendar and returns the trace. Each stream
// retires its items in order until it blocks: on a wait for an event
// not yet recorded, where it parks until that event's Record retires
// and wakes it, or on a copy, which needs the shared host link. When no
// stream can advance, the link goes to the blocked copy that becomes
// ready earliest (the lowest stream ID on ties); the copies wait in a
// min-heap on (ready time, stream ID), so a run costs
// O((items + streams) · log streams). Work left over once no stream can
// advance and no copy waits for the link is a deadlock — a circular
// wait, or a wait on an event that is never recorded — and is reported
// as an error.
func (d *Device) Run() (*Trace, error) {
	n := len(d.streams)
	head := make([]int, n)     // index of each stream's next item
	free := make([]float64, n) // when each stream's last retired item completed
	recordedAt := make([]float64, d.nextEvent)
	recorded := make([]bool, d.nextEvent)
	// The streams blocked on an unrecorded event form a list: parked[ev]
	// is its first stream (-1 for none), nextParked[s] the one after s.
	// A stream is in at most one place at a time: one such list, the
	// runnable stack, or the link queue.
	parked := make([]StreamID, d.nextEvent)
	for ev := range parked {
		parked[ev] = -1
	}
	nextParked := make([]StreamID, n)
	runnable := make([]StreamID, n)
	remaining, spans, deltas := 0, 0, 0
	for s, q := range d.streams {
		runnable[s] = StreamID(s)
		remaining += len(q)
		for _, it := range q {
			if it.kind == kindKernel || it.kind == kindCopy {
				spans++
			}
			if it.alloc != 0 {
				deltas++
			}
			if it.free != 0 {
				deltas++
			}
		}
	}
	var link linkQueue
	var linkFree float64
	tr := &Trace{Spans: make([]Span, 0, spans)}
	var mem, peak int64

	// memEvents accumulates (time, delta) pairs; applied in time order
	// at the end for the peak computation.
	type memEvent struct {
		t     float64
		delta int64
	}
	memEvents := make([]memEvent, 0, deltas)

	retire := func(s StreamID, it *workItem, start, end float64) {
		if it.kind == kindKernel || it.kind == kindCopy {
			tr.Spans = append(tr.Spans, Span{Stream: s, Label: it.label, Start: start, End: end})
			if d.Recorder != nil {
				d.Recorder.Span(StreamName(s), it.label, start, end)
			}
			if it.alloc != 0 {
				memEvents = append(memEvents, memEvent{start, it.alloc})
			}
			if it.free != 0 {
				memEvents = append(memEvents, memEvent{end, -it.free})
			}
		}
		free[s] = end
		head[s]++
		remaining--
	}

	// advance retires stream s's items until it blocks or runs dry.
	advance := func(s StreamID) {
		for q := d.streams[s]; head[s] < len(q); {
			it := &q[head[s]]
			ready := free[s]
			switch it.kind {
			case kindKernel:
				retire(s, it, ready, ready+it.duration)
			case kindRecord:
				recordedAt[it.event], recorded[it.event] = ready, true
				for w := parked[it.event]; w >= 0; w = nextParked[w] {
					runnable = append(runnable, w)
				}
				parked[it.event] = -1
				retire(s, it, ready, ready)
			case kindWait:
				ev := it.event
				if ev < 0 || ev >= d.nextEvent {
					return // never recorded: blocked for good
				}
				if !recorded[ev] {
					parked[ev], nextParked[s] = s, parked[ev]
					return
				}
				retire(s, it, ready, max(ready, recordedAt[ev]))
			case kindCopy:
				link.push(linkRequest{ready, s})
				return
			}
		}
	}

	for {
		for len(runnable) > 0 {
			s := runnable[len(runnable)-1]
			runnable = runnable[:len(runnable)-1]
			advance(s)
		}
		if len(link) == 0 {
			break
		}
		// The link is a shared FIFO resource: grant it to the head copy
		// that becomes ready earliest.
		r := link.pop()
		it := &d.streams[r.stream][head[r.stream]]
		start := max(r.ready, linkFree)
		end := start + float64(it.bytes)/d.LinkBandwidth
		linkFree = end
		retire(r.stream, it, start, end)
		runnable = append(runnable, r.stream)
	}
	if remaining > 0 {
		return nil, fmt.Errorf("device: deadlock — %d items wait on events that are never recorded or form a cycle", remaining)
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
	slices.SortStableFunc(memEvents, func(a, b memEvent) int {
		// frees before allocations at equal times
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.delta, b.delta))
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
	slices.SortStableFunc(tr.Spans, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	return tr, nil
}
