package distserve

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/rpc"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"splitcnn/internal/dist"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
	"splitcnn/internal/trace"
)

// exchangeResidue describes what a worker's halo plane still holds, ""
// when it holds nothing: no resident request, no resident bytes, both
// gauges agreeing, no RunShard arena block out.
func exchangeResidue(w *Worker) string {
	g := w.Metrics().Gauge
	reqs, bytes := g("dist.worker.exchange_requests").Value(), g("dist.worker.exchange_resident_bytes").Value()
	if n, inUse := w.exch.Len(), w.eval.ArenaStats().InUseBytes; n != 0 || reqs != 0 || bytes != 0 || inUse != 0 {
		return fmt.Sprintf("worker %s: %d exchange requests (gauge %v), resident bytes gauge %v, %d arena bytes in use",
			w.Addr(), n, reqs, bytes, inUse)
	}
	return ""
}

func randImages(seed int64, n int, spec serve.Spec) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	imgs := make([][]float32, n)
	for i := range imgs {
		imgs[i] = make([]float32, 3*spec.Model.InputH*spec.Model.InputW)
		for j := range imgs[i] {
			imgs[i][j] = rng.Float32()
		}
	}
	return imgs
}

// TestExchangeDrainsToZero: the halo plane's lifecycle is exact. The
// moment a response is out — no sleep, no janitor tick — no worker's
// exchange holds a request or a byte, sequentially and after a 16-way
// concurrent burst, and the logits stay bit-identical to single-process
// serving.
func TestExchangeDrainsToZero(t *testing.T) {
	spec := testSpec("vgg16")
	imgs := randImages(59, 4, spec)
	want := make([][]float32, len(imgs))
	for i, img := range imgs {
		want[i] = referenceLogits(t, spec, img)
	}
	for _, gang := range []int{2, 3} {
		t.Run(fmt.Sprintf("gang%d", gang), func(t *testing.T) {
			_, workers, base := startFleet(t, spec, gang, WorkerConfig{MaxPods: 16},
				RouterOptions{RequestTimeout: 20 * time.Second})
			predict := func(i int) error {
				status, pr, msg := postPredict(t, base, serve.PredictRequest{Image: imgs[i%len(imgs)]})
				if status != http.StatusOK {
					return fmt.Errorf("predict %d: %d %s", i, status, msg)
				}
				if pr.BatchSize != gang || !bitIdentical(pr.Logits, want[i%len(imgs)]) {
					return fmt.Errorf("predict %d: %d shards, max |Δ| %g vs single-process", i, pr.BatchSize, maxAbsDiff(pr.Logits, want[i%len(imgs)]))
				}
				return nil
			}
			drained := func(when string) {
				t.Helper()
				for _, w := range workers {
					if r := exchangeResidue(w); r != "" {
						t.Fatalf("%s: %s", when, r)
					}
				}
			}
			for i := 0; i < 64; i++ {
				if err := predict(i); err != nil {
					t.Fatal(err)
				}
				drained(fmt.Sprintf("after sequential response %d", i))
			}
			var wg sync.WaitGroup
			for c := 0; c < 16; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if err := predict(4*c + i); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			drained("after the concurrent burst")
			// The gauges did move: rows were resident while in flight.
			for _, w := range workers {
				if hw := w.Metrics().Gauge("dist.worker.exchange_resident_bytes_high_water").Value(); hw <= 0 {
					t.Fatalf("worker %s: resident-bytes high water %v after %d gang-%d requests", w.Addr(), hw, 128, gang)
				}
			}
		})
	}
}

// TestExchangeDrainsAfterWorkerDeath: a gang member dies mid-request.
// The request is retried and answered; on the survivors, whatever the
// dead partner never fetched is gone no later than the request deadline
// plus one janitor tick, and goroutines and arena blocks are back to
// where they were.
func TestExchangeDrainsAfterWorkerDeath(t *testing.T) {
	const timeout = 2 * time.Second
	spec := testSpec("vgg16")
	img := randImages(61, 1, spec)[0]
	want := referenceLogits(t, spec, img)
	_, workers, base := startFleet(t, spec, 3,
		WorkerConfig{StageDelay: 5 * time.Millisecond}, // ~37 stages ≈ 190ms/attempt
		RouterOptions{RequestTimeout: timeout, HealthInterval: 100 * time.Millisecond})

	// Warm every connection (router→workers, worker↔worker, the test's
	// HTTP client) so the goroutine baseline includes them.
	if status, _, msg := postPredict(t, base, serve.PredictRequest{Image: img}); status != http.StatusOK {
		t.Fatalf("warm-up predict: %d %s", status, msg)
	}
	baseline := runtime.NumGoroutine()

	done := make(chan struct{})
	var status int
	var pr serve.PredictResponse
	var msg string
	go func() {
		defer close(done)
		status, pr, msg = postPredict(t, base, serve.PredictRequest{Image: img})
	}()
	time.Sleep(60 * time.Millisecond) // mid-evaluation for every plausible schedule
	workers[0].Close()
	<-done
	answered := time.Now()
	if status != http.StatusOK || !bitIdentical(pr.Logits, want) {
		t.Fatalf("predict across the crash: %d %s (max |Δ| %g)", status, msg, maxAbsDiff(pr.Logits, want))
	}

	// Deadline + one 500 ms janitor tick, plus scheduling slack.
	limit := answered.Add(timeout + 500*time.Millisecond + 500*time.Millisecond)
	for _, w := range workers[1:] {
		for exchangeResidue(w) != "" && time.Now().Before(limit) {
			time.Sleep(20 * time.Millisecond)
		}
		if r := exchangeResidue(w); r != "" {
			t.Fatalf("survivor not drained %v after the response: %s", time.Since(answered), r)
		}
	}
	for runtime.NumGoroutine() > baseline && time.Now().Before(limit) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines, %d before the crash\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestEarlyRejectionFailsPartner: a worker that refuses its shard — at
// capacity here — must fail the attempt on its exchange, or a partner
// already parked in Shard.Halo on it waits out the whole request
// deadline and the router's gather with it.
func TestEarlyRejectionFailsPartner(t *testing.T) {
	spec := testSpec("vgg16")
	a, err := StartWorker("127.0.0.1:0", WorkerConfig{Spec: spec, MaxPods: 1, StageDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := StartWorker("127.0.0.1:0", WorkerConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	pool := dist.NewClientPool()
	t.Cleanup(pool.Close)

	plan := a.Plan()
	full := tensor.New(1, plan.InC, plan.InH, plan.InW)
	copy(full.Data(), randImages(67, 1, spec)[0])
	eval := func(w *Worker, reqID string, shard int, gang []string) error {
		imgR := plan.ImageRange(plan.Owners(len(gang)), shard)
		args := &EvalArgs{
			ReqID: reqID, Model: w.Signature(), Shard: shard, Gang: gang,
			TimeoutMs: 5000, RowLo: imgR.Lo, RowHi: imgR.Hi,
			Rows: SliceRows(full, 0, imgR).Data(),
		}
		return pool.Call(w.Addr(), "Shard.Eval", args, &EvalReply{}, 6*time.Second)
	}

	// Occupy A's only pod: a gang of one, ~37 stages × 50 ms.
	busy := make(chan error, 1)
	go func() { busy <- eval(a, "busy/a0", 0, []string{a.Addr()}) }()
	for a.inflight.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	// B starts its shard of gang {A, B} and parks in Shard.Halo on A,
	// whose own Eval has not arrived yet.
	gang := []string{a.Addr(), b.Addr()}
	partner := make(chan error, 1)
	start := time.Now()
	go func() { partner <- eval(b, "stranded/a0", 1, gang) }()
	for a.haloReqs.Load() == 0 {
		if time.Since(start) > 3*time.Second {
			t.Fatal("B never asked A for halo rows")
		}
		time.Sleep(time.Millisecond)
	}
	// A's Eval arrives and is refused.
	var se rpc.ServerError
	if err := eval(a, "stranded/a0", 0, gang); !errors.As(err, &se) || !strings.HasPrefix(string(se), capacityPrefix) {
		t.Fatalf("A accepted a second pod (err %v)", err)
	}
	select {
	case err := <-partner:
		// A's refusal, relayed through the halo fetch — and not to be
		// mistaken by the router for a refusal of B's own.
		if !errors.As(err, &se) || !strings.Contains(string(se), ErrCapacity.Error()) || strings.HasPrefix(string(se), capacityPrefix) {
			t.Fatalf("partner's Eval: %v, want A's capacity rejection relayed as a shard error", err)
		}
	case <-time.After(time.Second):
		t.Fatalf("partner still waiting %v after A refused the attempt (budget 5s)", time.Since(start))
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("partner failed after %v, want well under 1s of its 5s budget", d)
	}
	// Nothing is parked on A: every halo request that entered was answered.
	if in, out := int64(a.haloReqs.Load()), a.Metrics().Histogram("dist.worker.halo_serve_seconds", trace.LatencyBuckets).Count(); in != out {
		t.Fatalf("A: %d halo requests entered, %d answered", in, out)
	}
	if err := <-busy; err != nil {
		t.Fatalf("the request occupying A: %v", err)
	}
}
