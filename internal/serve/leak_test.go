package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"splitcnn/internal/serve"
)

// TestArenaLeakCanary is the memory-leak canary: under concurrent load
// the executor arena vends storage per pass, and after the load stops
// and the server drains gracefully, arena in-use bytes must return to
// the idle baseline — both on the live instance counters and on the
// arena.in_use_bytes gauge a /metricsz scrape publishes. Run with
// -race in CI (make mem-smoke covers the serve binary; this covers the
// library path).
func TestArenaLeakCanary(t *testing.T) {
	snap := writeFixtureSnapshot(t)
	reg, err := serve.NewRegistry(serve.Spec{
		Name: "tiny", ModelText: modelText, Snapshot: snap, MaxBatch: 8,
	})
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	srv := serve.NewServer(reg, serve.Options{
		QueueDepth:     256,
		RequestTimeout: 30 * time.Second,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + addr.String()
	inst, _ := reg.Lookup("")
	baseline := inst.ArenaStats().InUseBytes

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img := make([]float32, inst.ImageLen())
			for j := 0; j < perClient; j++ {
				postPredict(t, base, img)
			}
		}()
	}
	wg.Wait()

	if hw := inst.ArenaStats().HighWaterBytes; hw <= baseline {
		t.Fatalf("arena high water = %d, want > baseline %d (load never touched the arena)", hw, baseline)
	}

	// All responses are in hand, so every pass has released its arena
	// storage, and a scrape publishes the settled value.
	live := inst.ArenaStats().InUseBytes
	if gauge := int64(scrapeGauges(t, base)["arena.in_use_bytes"]); live != baseline || gauge != baseline {
		t.Fatalf("arena did not drain: in-use %d (gauge %d), baseline %d", live, gauge, baseline)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := inst.ArenaStats().InUseBytes; got != baseline {
		t.Fatalf("post-drain arena in-use = %d, want baseline %d", got, baseline)
	}
}
