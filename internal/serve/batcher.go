package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"splitcnn/internal/trace"
)

// Submission errors, mapped by the HTTP layer to status codes.
var (
	// ErrQueueFull is admission-control backpressure (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining means the server is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: draining")
	// ErrDeadline means the request's deadline expired while it waited
	// in the queue (HTTP 504).
	ErrDeadline = errors.New("serve: deadline exceeded in queue")
)

// Request is one enqueued inference request.
type Request struct {
	// Image is the flattened C*H*W input.
	Image []float32
	// Deadline, when non-zero, drops the request (with ErrDeadline) if a
	// batch has not picked it up by then.
	Deadline time.Time
	// Enqueued is stamped by Submit; QueueWait in the response is
	// measured from it.
	Enqueued time.Time
	// Span is the request's wall-clock trace context (nil when the
	// request is unsampled); the dispatcher records the queue, assemble
	// and forward stage spans into it.
	Span *trace.SpanContext
	resp chan Response
}

// Response is the outcome of one request.
type Response struct {
	// Logits is a private copy of the model's output row (nil on error).
	Logits []float32
	// BatchSize is how many requests shared the executor pass — the
	// coalescing observability hook the e2e test asserts on.
	BatchSize int
	// QueueWait is time spent between Submit and batch formation.
	QueueWait time.Duration
	Err       error
}

// BatcherOptions tune the dynamic batching scheduler.
type BatcherOptions struct {
	// MaxBatch caps a coalesced batch; it must not exceed the
	// instance's executor batch size. Default: the instance's MaxBatch.
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrQueueFull (default 4 * MaxBatch).
	QueueDepth int
	// Metrics, when non-nil, receives serve.* instruments.
	Metrics *trace.Metrics
	// Tracer, when non-nil, receives batch-level spans linking the
	// coalesced request IDs (the per-request spans ride on Request.Span).
	Tracer *trace.WallTracer
}

// Batcher coalesces concurrent single-image requests into executor
// batches. It is work-conserving: an idle executor runs whatever is
// queued at once, and requests that arrive during a forward form the
// next batch (up to MaxBatch). A single dispatcher goroutine owns the
// instance's executor, so the arena and the graph values are never
// shared across goroutines.
type Batcher struct {
	run func(imgs [][]float32) ([][]float32, error)
	// peak, when non-nil, returns the peak slab bytes of the pass over
	// n images — the footprint charged to every request of a batch of n.
	peak func(n int) int64
	opts BatcherOptions

	queue chan *Request
	done  chan struct{}
	// batchSeq numbers launched batches; sampled requests coalesced into
	// the same batch share the batch number in their forward-span args.
	batchSeq atomic.Int64

	mu       sync.RWMutex
	draining bool
}

// NewBatcher starts the dispatcher for inst.
func NewBatcher(inst *Instance, opts BatcherOptions) *Batcher {
	if opts.MaxBatch <= 0 || opts.MaxBatch > inst.MaxBatch {
		opts.MaxBatch = inst.MaxBatch
	}
	return newBatcher(inst.Run, inst.passPeak, opts)
}

// newBatcher is the injectable core (tests substitute run; peak may be
// nil).
func newBatcher(run func([][]float32) ([][]float32, error), peak func(int) int64, opts BatcherOptions) *Batcher {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 8
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.MaxBatch
	}
	b := &Batcher{
		run:   run,
		peak:  peak,
		opts:  opts,
		queue: make(chan *Request, opts.QueueDepth),
		done:  make(chan struct{}),
	}
	go b.dispatch()
	return b
}

// Submit enqueues r and returns a channel delivering its Response.
// It fails fast with ErrQueueFull (bounded queue) or ErrDraining
// (shutdown in progress); an accepted request is guaranteed a response,
// even across Shutdown.
func (b *Batcher) Submit(r *Request) (<-chan Response, error) {
	r.resp = make(chan Response, 1) // dispatcher never blocks on delivery
	r.Enqueued = time.Now()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.draining {
		b.count("serve.rejects_draining")
		return nil, ErrDraining
	}
	select {
	case b.queue <- r:
		if m := b.opts.Metrics; m != nil {
			m.Counter("serve.requests").Add(1)
			m.Gauge("serve.queue_depth").Set(float64(len(b.queue)))
		}
		return r.resp, nil
	default:
		b.count("serve.rejects_queue_full")
		return nil, ErrQueueFull
	}
}

// Shutdown stops admission and blocks until every accepted request has
// been answered. It is idempotent.
func (b *Batcher) Shutdown() {
	b.mu.Lock()
	first := !b.draining
	b.draining = true
	if first {
		// No Submit holds the read lock here, and none will pass the
		// draining check again, so closing the queue cannot race a send.
		close(b.queue)
	}
	b.mu.Unlock()
	<-b.done
}

func (b *Batcher) count(name string) {
	if m := b.opts.Metrics; m != nil {
		m.Counter(name).Add(1)
	}
}

// dispatch is the scheduler loop: block for the first request, take
// whatever else is already queued (up to MaxBatch) without waiting, and
// run it.
func (b *Batcher) dispatch() {
	defer close(b.done)
	batch := make([]*Request, 0, b.opts.MaxBatch)
	imgs := make([][]float32, 0, b.opts.MaxBatch)
	for {
		r, ok := <-b.queue
		if !ok {
			return // drained: queue closed and emptied
		}
		batch = append(batch[:0], r)
	fill:
		for len(batch) < b.opts.MaxBatch {
			select {
			case r2, ok := <-b.queue:
				if !ok {
					break fill // shutdown: run what we have
				}
				batch = append(batch, r2)
			default:
				break fill
			}
		}
		if m := b.opts.Metrics; m != nil {
			m.Gauge("serve.queue_depth").Set(float64(len(b.queue)))
		}
		b.runBatch(batch, imgs)
	}
}

// runBatch expires overdue requests, executes the rest as one batch,
// and fans the per-request logits back out.
func (b *Batcher) runBatch(batch []*Request, imgs [][]float32) {
	now := time.Now()
	live := batch[:0]
	for _, r := range batch {
		if !r.Deadline.IsZero() && now.After(r.Deadline) {
			b.count("serve.timeouts_queue")
			r.Span.Record("queue", r.Enqueued, now)
			r.resp <- Response{Err: ErrDeadline, QueueWait: now.Sub(r.Enqueued)}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	// Sampled requests in this batch: their queue span ends at batch
	// formation, and their forward spans all carry the same batch number
	// and the full list of coalesced sampled request IDs — the link that
	// makes a coalesced executor pass legible in the trace viewer.
	var sampledIDs []string
	for _, r := range live {
		if r.Span != nil {
			sampledIDs = append(sampledIDs, r.Span.ID())
		}
	}
	bid := b.batchSeq.Add(1)
	imgs = imgs[:0]
	for _, r := range live {
		imgs = append(imgs, r.Image)
	}
	fwdStart := time.Now()
	for _, r := range live {
		r.Span.Record("queue", r.Enqueued, now)
		r.Span.Record("assemble", now, fwdStart)
	}
	logits, err := b.run(imgs)
	fwdEnd := time.Now()
	for _, r := range live {
		r.Span.RecordArgs("forward", fwdStart, fwdEnd, map[string]any{
			"batch": bid, "batch_size": len(live), "requests": sampledIDs,
		})
	}
	if m := b.opts.Metrics; m != nil {
		m.Counter("serve.batches").Add(1)
		m.Histogram("serve.batch_size", batchSizeBuckets).Observe(float64(len(live)))
		// Per-request memory attribution: the batch's peak activation
		// bytes, whole and amortized over its occupants.
		if err == nil && b.peak != nil {
			if peak := b.peak(len(live)); peak > 0 {
				per := float64(peak) / float64(len(live))
				for range live {
					m.Histogram("serve.request_peak_bytes", trace.ByteBuckets).Observe(float64(peak))
					m.Histogram("serve.request_bytes_per_image", trace.ByteBuckets).Observe(per)
				}
			}
		}
	}
	for i, r := range live {
		resp := Response{BatchSize: len(live), QueueWait: now.Sub(r.Enqueued), Err: err}
		if err == nil {
			// Private copy: the instance's row buffers are reused by the
			// next batch, while this response may outlive it.
			resp.Logits = append([]float32(nil), logits[i]...)
		}
		r.resp <- resp
	}
	if m := b.opts.Metrics; m != nil {
		for _, r := range live {
			m.Histogram("serve.queue_seconds", trace.LatencyBuckets).Observe(now.Sub(r.Enqueued).Seconds())
		}
	}
}

// batchSizeBuckets resolve exact batch sizes up to 32; DefBuckets are
// seconds-flavored and useless for counts.
var batchSizeBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
