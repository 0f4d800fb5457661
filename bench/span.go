package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the public API. Parent is the span that caused it (-1 for a
// root); spans of one op share Op; Lane is the client goroutine, which
// becomes the Chrome trace thread so nested spans stack.
type span struct {
	Name       string
	Parent     int
	Op         int
	Lane       int
	Start, End time.Duration // since the recorder was created
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// "tracing off": every method no-ops, so workload code calls it
// unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span now and returns its id (-1 when tracing is off).
func (r *recorder) start(name string, parent, op, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Lane: lane, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (e.g. the
// server-side latency a response reports), relative to wall times.
func (r *recorder) add(name string, parent, op, lane int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Lane: lane, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// len is how many spans have been started so far.
func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot copies the spans; ids stay valid as indexes. A span never
// ended (an op that failed mid-way) is closed at zero length.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children (overlapping children are
// counted once). Indexes follow spans.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStats groups durations and self times (ms) by name, over the spans
// recorded at index from or later.
func spanStats(spans []span, from int) (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	st := selfTimes(spans)
	for i, s := range spans {
		if i < from {
			continue
		}
		dur[s.Name] = append(dur[s.Name], ms(s.End-s.Start))
		self[s.Name] = append(self[s.Name], ms(st[i]))
	}
	return dur, self
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; chrome://tracing and ui.perfetto.dev load an array of them.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func chromeEvents(spans []span) []chromeEvent {
	ev := make([]chromeEvent, len(spans))
	for i, s := range spans {
		cat := s.Name
		for j := range cat {
			if cat[j] == '.' {
				cat = cat[:j]
				break
			}
		}
		ev[i] = chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	return ev
}

// writeChrome dumps the spans as Chrome trace_event JSON.
func writeChrome(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(chromeEvents(spans))
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
