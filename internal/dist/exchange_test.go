package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestExchangePublishThenWait(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	e.Publish("r1", 0, 42)
	v, err := e.Wait("r1", 0, time.Second)
	if err != nil || v.(int) != 42 {
		t.Fatalf("Wait: %v, %v", v, err)
	}
	// Double publish is ignored, first value wins.
	e.Publish("r1", 0, 99)
	if v, _ := e.Wait("r1", 0, time.Second); v.(int) != 42 {
		t.Fatalf("double publish overwrote: %v", v)
	}
}

func TestExchangeWaitBeforePublish(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	got := make(chan any, 1)
	go func() {
		v, err := e.Wait("r1", 3, 5*time.Second)
		if err != nil {
			got <- err
			return
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	e.Publish("r1", 3, "rows")
	if v := <-got; v != "rows" {
		t.Fatalf("racing waiter got %v", v)
	}
}

func TestExchangeWaitTimesOut(t *testing.T) {
	e := NewExchange()
	if _, err := e.Wait("ghost", 0, 20*time.Millisecond); err == nil {
		t.Fatal("wait on never-published cell succeeded")
	}
}

func TestExchangeExpireFailsWaiters(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(10*time.Millisecond))
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Wait("r1", 0, 10*time.Second)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if n := e.Expire(time.Now()); n != 1 {
		t.Fatalf("Expire dropped %d requests, want 1", n)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("expired waiter got a value")
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not failed by Expire")
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after sweep", e.Len())
	}
}

// TestExchangeFailTombstonesLateWaiters pins the race the distributed
// worker hit: a consumer whose RPC lands *after* the producer aborts
// must fail immediately, not park until its own timeout.
func TestExchangeFailTombstonesLateWaiters(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	boom := errors.New("producer aborted")

	// Parked waiter fails now.
	parked := make(chan error, 1)
	go func() {
		_, err := e.Wait("r1", 0, 10*time.Second)
		parked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e.Fail("r1", boom, time.Now().Add(time.Second))
	select {
	case err := <-parked:
		if !errors.Is(err, boom) {
			t.Fatalf("parked waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("parked waiter survived Fail")
	}

	// Late waiter fails immediately (the important half).
	start := time.Now()
	if _, err := e.Wait("r1", 7, 10*time.Second); !errors.Is(err, boom) {
		t.Fatalf("late waiter: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("late waiter parked instead of failing fast")
	}

	// Publishes into a failed request are dropped, and waiters still
	// see the failure rather than the value.
	e.Publish("r1", 7, "stale")
	if _, err := e.Wait("r1", 7, time.Second); !errors.Is(err, boom) {
		t.Fatalf("post-fail publish resurrected the request: %v", err)
	}

	// The tombstone itself is swept by expiry.
	time.Sleep(1100 * time.Millisecond)
	if n := e.Expire(time.Now()); n != 1 {
		t.Fatalf("tombstone sweep dropped %d, want 1", n)
	}
}

func TestExchangeReleaseFailsWaiters(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Wait("r1", 0, 10*time.Second)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e.Release("r1")
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "released") {
			t.Fatalf("released waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not failed by Release")
	}
}

// TestExchangeConcurrentPublishersAndWaiters shakes the check-and-close
// paths under the race detector.
func TestExchangeConcurrentPublishersAndWaiters(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(stage int) {
			defer wg.Done()
			e.Publish("r1", stage%4, stage)
		}(i)
		go func(stage int) {
			defer wg.Done()
			if _, err := e.Wait("r1", stage%4, 5*time.Second); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	e.Release("r1")
}

// TestExchangeCountedDropsOnLastRead: a value published for n readers
// reaches each of them and is gone with the n-th Wait.
func TestExchangeCountedDropsOnLastRead(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	drops := 0
	e.PublishCounted("r1", 2, "rows", 3, func() { drops++ })
	for i := 0; i < 3; i++ {
		if drops != 0 {
			t.Fatalf("dropped after %d of 3 reads", i)
		}
		if v, err := e.Wait("r1", 2, time.Second); err != nil || v != "rows" {
			t.Fatalf("read %d: %v, %v", i, v, err)
		}
	}
	if drops != 1 {
		t.Fatalf("drop notification ran %d times after the last read, want 1", drops)
	}
	// Gone: a fourth Wait finds no value and times out on a fresh cell.
	if v, err := e.Wait("r1", 2, 10*time.Millisecond); err == nil {
		t.Fatalf("over-read got %v", v)
	}
	// An open request stays (its producer may publish more) ...
	if e.Len() != 1 {
		t.Fatalf("Len = %d before Close", e.Len())
	}
	// ... and a closed one with nothing owed goes at once.
	e.Close("r1")
	if e.Len() != 0 {
		t.Fatalf("Len = %d after Close with nothing pending", e.Len())
	}
	// Zero readers: nothing is stored, the notification is immediate.
	e.PublishCounted("r2", 0, "unread", 0, func() { drops++ })
	if drops != 2 {
		t.Fatalf("readers=0 publish: %d notifications, want 2", drops)
	}
	if _, err := e.Wait("r2", 0, 10*time.Millisecond); err == nil {
		t.Fatal("readers=0 publish was stored")
	}
}

// TestExchangeCloseKeepsOwedValues: closing before the last read keeps
// the value until it is read and the request exactly that long; values
// nobody is owed and waiters on never-published cells go at Close.
func TestExchangeCloseKeepsOwedValues(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	drops := 0
	e.PublishCounted("r1", 0, "edge", 2, func() { drops++ })
	e.Publish("r1", 1, "plain")
	parked := make(chan error, 1)
	go func() {
		_, err := e.Wait("r1", 9, 10*time.Second)
		parked <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if v, err := e.Wait("r1", 0, time.Second); err != nil || v != "edge" {
		t.Fatalf("first read: %v, %v", v, err)
	}
	e.Close("r1")
	select {
	case err := <-parked:
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("waiter on a never-published cell: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close left a waiter parked on a cell that cannot be published")
	}
	if e.Len() != 1 || drops != 0 {
		t.Fatalf("Close dropped an owed value: Len %d, drops %d", e.Len(), drops)
	}
	start := time.Now()
	if _, err := e.Wait("r1", 1, 10*time.Second); err == nil {
		t.Fatal("plain value survived Close")
	}
	if _, err := e.Wait("r1", 5, 10*time.Second); err == nil {
		t.Fatal("Wait on a closed request parked for a cell it will never get")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Waits on a closed request parked instead of failing fast")
	}
	e.Publish("r1", 5, "late") // ignored: the producer said it was done
	if v, err := e.Wait("r1", 0, time.Second); err != nil || v != "edge" {
		t.Fatalf("owed read after Close: %v, %v", v, err)
	}
	if e.Len() != 0 || drops != 1 {
		t.Fatalf("after the last owed read: Len %d, drops %d, want 0 and 1", e.Len(), drops)
	}
}

// TestExchangeFailAfterPartialReads: a tombstone fails the remaining
// readers of a counted value and lets go of it.
func TestExchangeFailAfterPartialReads(t *testing.T) {
	e := NewExchange()
	e.Open("r1", time.Now().Add(time.Minute))
	boom := errors.New("producer aborted")
	drops := 0
	e.PublishCounted("r1", 0, "rows", 3, func() { drops++ })
	if _, err := e.Wait("r1", 0, time.Second); err != nil {
		t.Fatal(err)
	}
	e.Fail("r1", boom, time.Now().Add(time.Minute))
	if drops != 1 {
		t.Fatalf("Fail kept a published value: %d drops", drops)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Wait("r1", 0, 10*time.Second); !errors.Is(err, boom) {
			t.Fatalf("reader after Fail: %v", err)
		}
	}
	e.Close("r1") // a tombstone outlives its producer's Close
	if e.Len() != 1 {
		t.Fatalf("Close removed a tombstone: Len %d", e.Len())
	}
	e.PublishCounted("r1", 1, "stale", 1, func() { drops++ })
	if drops != 2 {
		t.Fatalf("publish into a failed request: %d drops, want 2", drops)
	}
}

// TestExchangeExpireSweepsUnreadCounted: the deadline backstop — a
// counted value its reader never fetches goes with the request, closed
// or not.
func TestExchangeExpireSweepsUnreadCounted(t *testing.T) {
	e := NewExchange()
	drops := 0
	e.Open("r1", time.Now().Add(10*time.Millisecond))
	e.PublishCounted("r1", 0, "rows", 1, func() { drops++ })
	e.Close("r1")
	e.Open("r2", time.Now().Add(10*time.Millisecond))
	e.PublishCounted("r2", 0, "rows", 2, func() { drops++ })
	if e.Len() != 2 || drops != 0 {
		t.Fatalf("before expiry: Len %d, drops %d", e.Len(), drops)
	}
	if n := e.Expire(time.Now().Add(time.Second)); n != 2 {
		t.Fatalf("Expire dropped %d requests, want 2", n)
	}
	if e.Len() != 0 || drops != 2 {
		t.Fatalf("after expiry: Len %d, drops %d", e.Len(), drops)
	}
}

// TestExchangePlainPublishRereadable: Publish is not counted.
func TestExchangePlainPublishRereadable(t *testing.T) {
	e := NewExchange()
	e.Publish("r1", 0, 7)
	for i := 0; i < 50; i++ {
		if v, err := e.Wait("r1", 0, time.Second); err != nil || v.(int) != 7 {
			t.Fatalf("read %d: %v, %v", i, v, err)
		}
	}
	e.Release("r1")
	if e.Len() != 0 {
		t.Fatalf("Len = %d after Release", e.Len())
	}
}

// TestExchangeLifecycleHammer drives counted publishes, their exact
// readers, Close and a concurrent Expire sweep over shared request IDs.
// Under -race it checks the locking; everywhere it checks that every
// value's drop notification runs exactly once and nothing stays behind.
func TestExchangeLifecycleHammer(t *testing.T) {
	const reqs, stages, readers = 32, 4, 3
	e := NewExchange()
	var published, dropped atomic.Int64
	stop := make(chan struct{})
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Expire(time.Now()) // nothing is stale: must drop nothing
				e.Len()
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < reqs; r++ {
		id := fmt.Sprintf("r%d", r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Open(id, time.Now().Add(time.Minute))
			for s := 0; s < stages; s++ {
				published.Add(1)
				e.PublishCounted(id, s, s, readers, func() { dropped.Add(1) })
			}
			e.Close(id)
		}()
		for k := 0; k < readers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := 0; s < stages; s++ {
					if v, err := e.Wait(id, s, 10*time.Second); err != nil || v.(int) != s {
						t.Errorf("%s stage %d: %v, %v", id, s, v, err)
					}
				}
			}()
		}
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
	if e.Len() != 0 {
		t.Fatalf("Len = %d after every value was read and every request closed", e.Len())
	}
	if p, d := published.Load(), dropped.Load(); p != d {
		t.Fatalf("%d values published, %d drop notifications", p, d)
	}
}

// BenchmarkExchangePublishWait is the local guard for the bench
// metric dist.exchange_roundtrip_us: the same publish → wait → release
// sequence, plus the counted lifecycle the workers use.
func BenchmarkExchangePublishWait(b *testing.B) {
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i)
	}
	b.Run("plain", func(b *testing.B) {
		e := NewExchange()
		for i := 0; b.Loop(); i++ {
			id := ids[i%len(ids)]
			e.Publish(id, 0, i)
			if _, err := e.Wait(id, 0, time.Second); err != nil {
				b.Fatal(err)
			}
			e.Release(id)
		}
	})
	b.Run("counted", func(b *testing.B) {
		e := NewExchange()
		for i := 0; b.Loop(); i++ {
			id := ids[i%len(ids)]
			e.PublishCounted(id, 0, i, 1, nil)
			if _, err := e.Wait(id, 0, time.Second); err != nil {
				b.Fatal(err)
			}
			e.Close(id)
		}
		if e.Len() != 0 {
			b.Fatalf("Len = %d", e.Len())
		}
	})
}
