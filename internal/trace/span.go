package trace

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the wall-clock half of the observability layer: where
// trace.Trace records *simulated* seconds, SpanContext and WallTracer
// record real time.Time intervals from a live serving process and fold
// them into the same Chrome trace_event export, so a production request
// timeline can sit next to a simulator timeline in chrome://tracing.

// WallSpan is one named wall-clock interval of a request's lifecycle.
type WallSpan struct {
	Name       string
	Start, End time.Time
	// Args are extra per-span trace arguments (batch links, sizes).
	Args map[string]any
}

// SpanContext carries one sampled request's identity through the
// serving pipeline (HTTP handler → batcher → executor) and collects the
// stage spans recorded along the way. A nil *SpanContext is the
// "unsampled" context: every method no-ops, so call sites never branch.
// Methods are safe for concurrent use — the HTTP handler and the
// batcher's dispatcher goroutine both record into the same context.
type SpanContext struct {
	id string

	mu    sync.Mutex
	spans []WallSpan
}

// ID returns the request ID ("" for the nil context).
func (c *SpanContext) ID() string {
	if c == nil {
		return ""
	}
	return c.id
}

// Record appends one completed stage span.
func (c *SpanContext) Record(name string, start, end time.Time) {
	c.RecordArgs(name, start, end, nil)
}

// RecordArgs is Record with extra trace arguments.
func (c *SpanContext) RecordArgs(name string, start, end time.Time, args map[string]any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, WallSpan{Name: name, Start: start, End: end, Args: args})
	c.mu.Unlock()
}

// StartSpan opens a stage span now and returns the closure that ends
// it: `defer sc.StartSpan("forward")()`.
func (c *SpanContext) StartSpan(name string) func() {
	if c == nil {
		return func() {}
	}
	start := time.Now()
	return func() { c.Record(name, start, time.Now()) }
}

// Spans returns a copy of the recorded stage spans.
func (c *SpanContext) Spans() []WallSpan {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]WallSpan(nil), c.spans...)
}

// WallTracer samples live requests and exports their stage spans as
// Chrome trace events. Each stage name becomes one trace lane, the
// request ID rides in every event's args — so a sampled request reads
// as one vertical slice across the admission/queue/batch/forward lanes.
// Times are recorded relative to the tracer's creation, which keeps
// the exported microsecond timestamps small and aligned across lanes.
type WallTracer struct {
	rate  float64
	epoch time.Time
	tr    *Trace

	mu  sync.Mutex
	rng *rand.Rand

	sampled atomic.Int64
	dropped atomic.Int64
}

// DefaultSpanCap is the ring-buffer bound NewWallTracer installs on its
// trace: a long-running worker with sampling enabled retains the most
// recent window of spans instead of growing without bound. Use
// Trace().SetCap to change or remove it.
const DefaultSpanCap = 16384

// NewWallTracer returns a tracer sampling the given fraction of
// requests (clamped to [0, 1]; 1 samples everything). seed fixes the
// sampling sequence, which tests use to make sampling deterministic.
func NewWallTracer(rate float64, seed int64) *WallTracer {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	tr := New()
	tr.SetCap(DefaultSpanCap)
	return &WallTracer{
		rate:  rate,
		epoch: time.Now(),
		tr:    tr,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Request makes the sampling decision for one request: a live context
// carrying id when sampled, nil (the no-op context) otherwise. A nil
// tracer never samples.
func (w *WallTracer) Request(id string) *SpanContext {
	if w == nil || w.rate <= 0 {
		return nil
	}
	if w.rate < 1 {
		w.mu.Lock()
		miss := w.rng.Float64() >= w.rate
		w.mu.Unlock()
		if miss {
			w.dropped.Add(1)
			return nil
		}
	}
	w.sampled.Add(1)
	return &SpanContext{id: id}
}

// Finish exports a completed request's spans into the tracer's trace.
// Safe to call with a nil context (unsampled request) or nil tracer.
func (w *WallTracer) Finish(c *SpanContext) {
	if w == nil || c == nil {
		return
	}
	for _, s := range c.Spans() {
		args := map[string]any{"request": c.id}
		for k, v := range s.Args {
			args[k] = v
		}
		w.tr.SpanArgs(s.Name, fmt.Sprintf("%s %s", s.Name, c.id),
			s.Start.Sub(w.epoch).Seconds(), s.End.Sub(w.epoch).Seconds(), args)
	}
}

// SpanAt records one wall-clock interval directly into the tracer's
// trace under an explicit stream, bypassing the per-request Finish
// export. The cluster stitcher uses this to lay remote spans
// (already skew-corrected to this process's clock) onto per-process
// rows of a single timeline.
func (w *WallTracer) SpanAt(stream, name string, start, end time.Time, args map[string]any) {
	if w == nil {
		return
	}
	w.tr.SpanArgs(stream, name, start.Sub(w.epoch).Seconds(), end.Sub(w.epoch).Seconds(), args)
}

// DroppedSpans returns how many spans the ring cap has evicted.
func (w *WallTracer) DroppedSpans() int64 {
	if w == nil {
		return 0
	}
	return w.tr.DroppedSpans()
}

// Sampled returns how many requests were sampled so far.
func (w *WallTracer) Sampled() int64 {
	if w == nil {
		return 0
	}
	return w.sampled.Load()
}

// Trace exposes the accumulated trace (nil for a nil tracer).
func (w *WallTracer) Trace() *Trace {
	if w == nil {
		return nil
	}
	return w.tr
}

// WriteFile writes the accumulated trace as Chrome trace_event JSON.
func (w *WallTracer) WriteFile(path string) error {
	if w == nil {
		return fmt.Errorf("trace: nil wall tracer")
	}
	return w.tr.WriteFile(path)
}
