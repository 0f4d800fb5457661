package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splitcnn/internal/trace"
)

// echoRun is a fake instance runner: it echoes image[0] back as the
// single logit, so tests can verify each request got its own answer.
// It also records the largest batch it ever saw.
func echoRun(maxSeen *int64) func([][]float32) ([][]float32, error) {
	return func(imgs [][]float32) ([][]float32, error) {
		for {
			old := atomic.LoadInt64(maxSeen)
			if int64(len(imgs)) <= old || atomic.CompareAndSwapInt64(maxSeen, old, int64(len(imgs))) {
				break
			}
		}
		out := make([][]float32, len(imgs))
		for i, img := range imgs {
			out[i] = []float32{img[0]}
		}
		return out, nil
	}
}

// TestBatcherEveryRequestAnswered floods the batcher from N concurrent
// clients and asserts every request receives exactly one response
// carrying its own logits, and that no batch exceeds the cap.
func TestBatcherEveryRequestAnswered(t *testing.T) {
	const n = 100
	const maxBatch = 4
	var maxSeen int64
	b := newBatcher(echoRun(&maxSeen), BatcherOptions{
		MaxBatch:   maxBatch,
		QueueDepth: n,
		Metrics:    trace.NewMetrics(),
	})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &Request{Image: []float32{float32(i)}}
			ch, err := b.Submit(req)
			if err != nil {
				errs <- err
				return
			}
			resp := <-ch
			if resp.Err != nil {
				errs <- resp.Err
				return
			}
			if len(resp.Logits) != 1 || resp.Logits[0] != float32(i) {
				t.Errorf("request %d got logits %v", i, resp.Logits)
			}
			if resp.BatchSize < 1 || resp.BatchSize > maxBatch {
				t.Errorf("request %d reports batch size %d", i, resp.BatchSize)
			}
			// Exactly one response: the channel must now be empty and
			// never receive again (the dispatcher sends once).
			select {
			case extra := <-ch:
				t.Errorf("request %d got a second response: %+v", i, extra)
			default:
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("submit/response error: %v", err)
	}
	if maxSeen > maxBatch {
		t.Errorf("a batch of %d exceeded the cap %d", maxSeen, maxBatch)
	}
	b.Shutdown()
	if m := b.opts.Metrics; m.Counter("serve.requests").Value() != n {
		t.Errorf("serve.requests = %d, want %d", m.Counter("serve.requests").Value(), n)
	}
}

// TestBatcherCoalesces blocks the runner on the first request, queues
// three more behind it, and asserts they launch as one batch.
func TestBatcherCoalesces(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	first := true
	run := func(imgs [][]float32) ([][]float32, error) {
		if first {
			first = false // only the dispatcher goroutine calls run
			started <- struct{}{}
			<-release
		}
		out := make([][]float32, len(imgs))
		for i := range imgs {
			out[i] = []float32{0}
		}
		return out, nil
	}
	b := newBatcher(run, BatcherOptions{MaxBatch: 4, QueueDepth: 16})
	ch0, err := b.Submit(&Request{Image: []float32{0}})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started // dispatcher is now inside run; the queue is idle
	var chans []<-chan Response
	for i := 0; i < 3; i++ {
		ch, err := b.Submit(&Request{Image: []float32{0}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	close(release)
	if resp := <-ch0; resp.BatchSize != 1 {
		t.Errorf("blocked request batch size = %d, want 1", resp.BatchSize)
	}
	for i, ch := range chans {
		if resp := <-ch; resp.BatchSize != 3 {
			t.Errorf("queued request %d batch size = %d, want 3 (coalesced)", i, resp.BatchSize)
		}
	}
	b.Shutdown()
}

// TestBatcherDispatchesLoneRequestAtOnce: with the executor idle, a
// lone request runs immediately instead of waiting for company.
func TestBatcherDispatchesLoneRequestAtOnce(t *testing.T) {
	var maxSeen int64
	b := newBatcher(echoRun(&maxSeen), BatcherOptions{MaxBatch: 8})
	defer b.Shutdown()
	// The smallest of a few waits: one scheduler hiccup on a loaded
	// machine must not fail the test, while a fill delay would show in
	// every request.
	least := time.Hour
	for i := 0; i < 5; i++ {
		ch, err := b.Submit(&Request{Image: []float32{float32(i)}})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		resp := <-ch
		if resp.Err != nil || resp.BatchSize != 1 || resp.Logits[0] != float32(i) {
			t.Fatalf("request %d: %+v", i, resp)
		}
		least = min(least, resp.QueueWait)
	}
	if least >= time.Millisecond {
		t.Errorf("a lone request waited at least %v in the queue of an idle batcher, want < 1ms", least)
	}
}

// TestBatcherQueueFullRejects verifies admission control: with the
// dispatcher wedged and the bounded queue full, Submit fails fast with
// ErrQueueFull, and every accepted request is still answered.
func TestBatcherQueueFullRejects(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	run := func(imgs [][]float32) ([][]float32, error) {
		once.Do(func() {
			started <- struct{}{}
			<-release
		})
		out := make([][]float32, len(imgs))
		for i := range imgs {
			out[i] = []float32{0}
		}
		return out, nil
	}
	met := trace.NewMetrics()
	b := newBatcher(run, BatcherOptions{MaxBatch: 1, QueueDepth: 2, Metrics: met})
	var accepted []<-chan Response
	ch, err := b.Submit(&Request{Image: []float32{0}})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	accepted = append(accepted, ch)
	<-started // dispatcher wedged in run; nothing drains the queue now
	sawFull := false
	for i := 0; i < 4; i++ { // queue holds 2; the rest must bounce
		ch, err := b.Submit(&Request{Image: []float32{0}})
		switch {
		case err == nil:
			accepted = append(accepted, ch)
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatalf("submit %d: unexpected error %v", i, err)
		}
	}
	if !sawFull {
		t.Fatal("never saw ErrQueueFull with a wedged dispatcher and a depth-2 queue")
	}
	if len(accepted) != 3 { // 1 in flight + 2 queued
		t.Errorf("accepted %d requests, want 3", len(accepted))
	}
	close(release)
	for i, ch := range accepted {
		if resp := <-ch; resp.Err != nil {
			t.Errorf("accepted request %d failed: %v", i, resp.Err)
		}
	}
	if v := met.Counter("serve.rejects_queue_full").Value(); v < 1 {
		t.Errorf("serve.rejects_queue_full = %d, want >= 1", v)
	}
	b.Shutdown()
}

// TestBatcherShutdownDrains submits a burst, shuts down concurrently,
// and asserts every accepted request is answered (no drops) while
// post-shutdown submissions fail with ErrDraining.
func TestBatcherShutdownDrains(t *testing.T) {
	var maxSeen int64
	b := newBatcher(echoRun(&maxSeen), BatcherOptions{MaxBatch: 4, QueueDepth: 64})
	const n = 32
	chans := make([]<-chan Response, 0, n)
	for i := 0; i < n; i++ {
		ch, err := b.Submit(&Request{Image: []float32{float32(i)}})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans = append(chans, ch)
	}
	done := make(chan struct{})
	go func() {
		b.Shutdown()
		close(done)
	}()
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Errorf("accepted request %d dropped during drain: %v", i, resp.Err)
		} else if resp.Logits[0] != float32(i) {
			t.Errorf("request %d got logits %v during drain", i, resp.Logits)
		}
	}
	<-done
	if _, err := b.Submit(&Request{Image: []float32{0}}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown Submit error = %v, want ErrDraining", err)
	}
	b.Shutdown() // idempotent
}

// TestBatcherExpiresDeadlines checks that a request whose deadline
// passed while queued is answered with ErrDeadline and never executed.
func TestBatcherExpiresDeadlines(t *testing.T) {
	var calls int64
	run := func(imgs [][]float32) ([][]float32, error) {
		atomic.AddInt64(&calls, 1)
		out := make([][]float32, len(imgs))
		for i := range imgs {
			out[i] = []float32{0}
		}
		return out, nil
	}
	met := trace.NewMetrics()
	b := newBatcher(run, BatcherOptions{MaxBatch: 4, QueueDepth: 8, Metrics: met})
	ch, err := b.Submit(&Request{Image: []float32{0}, Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp := <-ch
	if !errors.Is(resp.Err, ErrDeadline) {
		t.Fatalf("response error = %v, want ErrDeadline", resp.Err)
	}
	if n := atomic.LoadInt64(&calls); n != 0 {
		t.Errorf("runner called %d times for an all-expired batch, want 0", n)
	}
	if v := met.Counter("serve.timeouts_queue").Value(); v != 1 {
		t.Errorf("serve.timeouts_queue = %d, want 1", v)
	}
	b.Shutdown()
}
