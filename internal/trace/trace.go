// Package trace is the observability layer of the reproduction: a
// recorder interface fed by the device simulator, the HMMS planner and
// the CPU executor, an exporter producing Chrome trace_event JSON
// (loadable in chrome://tracing or Perfetto), and a small metrics
// registry (metrics.go). The exported timelines are the repository's
// first-class version of the paper's Figure 9 nvprof stream plots: one
// trace thread per stream, one complete ("ph":"X") event per kernel or
// copy, so simulated and measured runs can be diffed span by span.
//
// The package depends only on the standard library; every other layer
// imports it, never the other way around.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Recorder receives occupancy spans from an execution — simulated
// (internal/sim, internal/device) or measured (internal/graph's
// executor via internal/train). Implementations must be safe for
// concurrent use. Times are in seconds.
type Recorder interface {
	// Span records one occupancy interval [start, end) of stream.
	Span(stream, name string, start, end float64)
}

// Nop is a Recorder that discards everything.
type Nop struct{}

// Span implements Recorder.
func (Nop) Span(string, string, float64, float64) {}

// Event is one Chrome trace_event entry. Only complete events
// ("ph":"X") are emitted: name, pid, tid, a timestamp and a duration in
// microseconds — exactly what the trace viewer needs to draw a lane.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace collects spans and exports them as a Chrome trace_event JSON
// array. The zero value is not usable; create one with New.
type Trace struct {
	mu    sync.Mutex
	pid   int
	spans []span
	tids  map[string]int
	// streams lists stream names in tid order (for tests and text dumps).
	streams []string
	// cap bounds the retained spans (0 = unbounded). When full the
	// buffer becomes a ring: the oldest span is overwritten and dropped
	// counts the eviction, so a long-running server with sampling on
	// keeps the most recent window instead of growing without bound.
	cap     int
	next    int
	dropped int64
}

type span struct {
	stream, name string
	start, end   float64
	args         map[string]any
}

// Well-known stream names get fixed thread IDs so that exported traces
// are comparable across runs and methods: the compute lane is always
// tid 0, the analytic simulator's offload/prefetch lanes 1 and 2.
// Other streams (e.g. the device replay's per-TSO memory streams) are
// numbered in order of first appearance.
var wellKnown = map[string]int{"compute": 0, "offload": 1, "prefetch": 2}

// New returns an empty trace collector.
func New() *Trace {
	t := &Trace{pid: 1, tids: make(map[string]int), streams: []string{"compute", "offload", "prefetch"}}
	for s, id := range wellKnown {
		t.tids[s] = id
	}
	return t
}

// Span implements Recorder.
func (t *Trace) Span(stream, name string, start, end float64) {
	t.SpanArgs(stream, name, start, end, nil)
}

// SpanArgs is Span with per-event arguments — rendered into the trace
// event's "args" object, where chrome://tracing shows them in the
// selection pane. The serving tracer uses this to link a batch span to
// the request IDs it coalesced.
func (t *Trace) SpanArgs(stream, name string, start, end float64, args map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.tids[stream]; !ok {
		t.tids[stream] = len(t.tids)
		t.streams = append(t.streams, stream)
	}
	s := span{stream: stream, name: name, start: start, end: end, args: args}
	if t.cap > 0 && len(t.spans) >= t.cap {
		t.spans[t.next] = s
		t.next = (t.next + 1) % t.cap
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// SetCap bounds the number of retained spans; once full, recording a
// new span evicts the oldest (counted by DroppedSpans). n <= 0 removes
// the bound. If more than n spans are already retained, the oldest are
// evicted immediately.
func (t *Trace) SetCap(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next != 0 {
		// Normalize the ring to oldest-first so trimming and future
		// eviction order stay correct.
		t.spans = append(append([]span(nil), t.spans[t.next:]...), t.spans[:t.next]...)
		t.next = 0
	}
	if n <= 0 {
		t.cap = 0
		return
	}
	if len(t.spans) > n {
		t.dropped += int64(len(t.spans) - n)
		t.spans = append([]span(nil), t.spans[len(t.spans)-n:]...)
	}
	t.cap = n
}

// DroppedSpans returns how many spans were evicted by the ring cap.
func (t *Trace) DroppedSpans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Events renders the recorded spans as Chrome trace events, sorted by
// (timestamp, tid, duration, name) so the export is deterministic
// regardless of recording order. Timestamps convert from seconds to the
// viewer's microseconds.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, Event{
			Name: s.name,
			Cat:  s.stream,
			Ph:   "X",
			TS:   s.start * 1e6,
			Dur:  (s.end - s.start) * 1e6,
			PID:  t.pid,
			TID:  t.tids[s.stream],
			Args: s.args,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Name < b.Name
	})
	return out
}

// WriteJSON writes the trace as a JSON array of complete events — the
// array form of the Chrome trace_event format.
func (t *Trace) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(t.Events(), "", " ")
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// WriteFile writes the trace JSON to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
