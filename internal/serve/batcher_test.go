package serve

import (
	"errors"
	"math"
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
	b := newBatcher(echoRun(&maxSeen), nil, BatcherOptions{
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
	b := newBatcher(run, nil, BatcherOptions{MaxBatch: 4, QueueDepth: 16})
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
	b := newBatcher(echoRun(&maxSeen), nil, BatcherOptions{MaxBatch: 8})
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
	b := newBatcher(run, nil, BatcherOptions{MaxBatch: 1, QueueDepth: 2, Metrics: met})
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
	b := newBatcher(echoRun(&maxSeen), nil, BatcherOptions{MaxBatch: 4, QueueDepth: 64})
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
	b := newBatcher(run, nil, BatcherOptions{MaxBatch: 4, QueueDepth: 8, Metrics: met})
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

// TestBatcherChargesPassPeak: every request of a batch of n is charged
// the static peak of the pass over n images (serve.request_peak_bytes)
// and its share of it (serve.request_bytes_per_image), so a lone
// request is charged less than a request of a full batch.
func TestBatcherChargesPassPeak(t *testing.T) {
	inst, err := Load(Spec{
		Name:      "attr",
		ModelText: "input 3 8 8\nconv 8 k3 s1 p1\nrelu\nflatten\nlinear 4\n",
		MaxBatch:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first batch holds the dispatcher until the full batch queues
	// behind it, so the second batch takes all MaxBatch requests.
	entered, gate := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	run := func(imgs [][]float32) ([][]float32, error) {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			<-gate
		}
		return inst.Run(imgs)
	}
	met := trace.NewMetrics()
	b := newBatcher(run, inst.passPeak, BatcherOptions{MaxBatch: inst.MaxBatch, QueueDepth: 16, Metrics: met})
	defer b.Shutdown()
	submit := func() <-chan Response {
		ch, err := b.Submit(&Request{Image: make([]float32, inst.ImageLen())})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	chans := []<-chan Response{submit()}
	<-entered
	for range inst.MaxBatch {
		chans = append(chans, submit())
	}
	close(gate)
	for i, ch := range chans {
		want := inst.MaxBatch
		if i == 0 {
			want = 1
		}
		if resp := <-ch; resp.Err != nil || resp.BatchSize != want {
			t.Fatalf("request %d: batch size %d, err %v; want batch size %d", i, resp.BatchSize, resp.Err, want)
		}
	}

	peak1, peakB := inst.passPeak(1), inst.passPeak(inst.MaxBatch)
	if peak1 <= 0 || peak1 >= peakB {
		t.Fatalf("pass peaks: %d bytes at n=1, %d at n=%d; want 0 < n=1 < n=%d", peak1, peakB, inst.MaxBatch, inst.MaxBatch)
	}
	var last int64
	for _, s := range inst.Timeline().Samples {
		last = max(last, s.RefBytes)
	}
	if last != peakB {
		t.Fatalf("timeline after the full batch peaks at %d bytes, want pass peak %d", last, peakB)
	}
	B := float64(inst.MaxBatch)
	for _, c := range []struct {
		name string
		sum  float64
	}{
		{"serve.request_peak_bytes", float64(peak1) + B*float64(peakB)},
		{"serve.request_bytes_per_image", float64(peak1) + B*(float64(peakB)/B)},
	} {
		h := met.Histogram(c.name, trace.ByteBuckets)
		if h.Count() != int64(1+inst.MaxBatch) || math.Abs(h.Sum()-c.sum) > 1e-6*c.sum {
			t.Fatalf("%s: count %d sum %g, want count %d sum %g", c.name, h.Count(), h.Sum(), 1+inst.MaxBatch, c.sum)
		}
	}
}

// TestTimelineDuringRun reads the memory timeline while the dispatcher's
// forwards run, as the debug sampler and /profilez do: every read is the
// static table of some pass over at most MaxBatch images, and the high
// water is that of the largest batch run so far.
func TestTimelineDuringRun(t *testing.T) {
	inst, err := Load(Spec{
		Name:      "tl",
		ModelText: "input 3 8 8\nconv 8 k3 s1 p1\nrelu\nflatten\nlinear 4\n",
		MaxBatch:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		var err error
		for i := 0; i < 200 && err == nil; i++ {
			_, err = inst.Run(make([][]float32, 1+i%inst.MaxBatch))
		}
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		tl := inst.Timeline()
		if len(tl.Samples) != inst.prog.Steps() || tl.MeasuredHighWater > inst.passPeak(inst.MaxBatch) {
			t.Fatalf("timeline with %d rows and high water %d; want %d rows, at most %d bytes",
				len(tl.Samples), tl.MeasuredHighWater, inst.prog.Steps(), inst.passPeak(inst.MaxBatch))
		}
	}
	if hw := inst.Timeline().MeasuredHighWater; hw != inst.passPeak(inst.MaxBatch) {
		t.Fatalf("high water %d after full batches, want %d", hw, inst.passPeak(inst.MaxBatch))
	}
}
