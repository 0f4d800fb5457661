package dist

import (
	"fmt"
	"sync"
	"time"
)

// Exchange is an in-memory rendezvous keyed by (request, stage): a
// producer publishes a value once, consumers Wait for it, and arrival
// order does not matter — a Wait that races ahead of its publish blocks
// on the same cell the publish will complete. Shard workers use it to
// hand halo rows to neighbor-serving RPC handlers.
//
// A value's lifetime is exact when the producer knows its readers:
// PublishCounted drops the value on the last of n successful Waits, and
// Close — the producer saying it will publish nothing more — drops
// everything no reader is still owed and removes the request the moment
// nothing is pending. A plain Publish stays readable any number of
// times until its request is closed, released, failed or expired.
//
// The deadline is only the backstop: Open (or the first touch) stamps an
// expiry and a periodic Expire sweep drops everything stale, failing
// any waiter still parked. That bounds memory when a gang partner dies
// mid-request and the rows published for it are never consumed.
type Exchange struct {
	mu   sync.Mutex
	reqs map[string]*exchangeReq
}

type exchangeReq struct {
	expiry time.Time
	cells  map[int]*cell
	// err, when non-nil, tombstones the request: every present and
	// future Wait fails with it immediately. Tombstones matter because
	// consumers race producers — a haloing neighbor whose RPC lands just
	// after the producer aborts must fail fast, not park until timeout
	// on a freshly auto-created cell.
	err error
	// closed marks the producer done: later publishes are ignored, a
	// Wait for a cell that was never published fails at once, and the
	// request goes away with its last owed value.
	closed bool
}

type cell struct {
	done chan struct{}
	val  any
	err  error
	// reads is how many successful Waits a counted value is still owed;
	// zero on a plain Publish, which is never consumed.
	reads int
	// dropped is the producer's notification that the exchange let go
	// of a counted value; taken (and cleared) by whoever unlinks the cell.
	dropped func()
}

func (c *cell) completed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// defaultTTL bounds requests nobody Opened explicitly (a Halo arriving
// for a request whose Eval never lands here).
const defaultTTL = time.Minute

// NewExchange returns an empty exchange.
func NewExchange() *Exchange {
	return &Exchange{reqs: make(map[string]*exchangeReq)}
}

func (e *Exchange) req(id string) *exchangeReq {
	r := e.reqs[id]
	if r == nil {
		r = &exchangeReq{expiry: time.Now().Add(defaultTTL), cells: make(map[int]*cell)}
		e.reqs[id] = r
	}
	return r
}

func (r *exchangeReq) cell(stage int) *cell {
	c := r.cells[stage]
	if c == nil {
		c = &cell{done: make(chan struct{})}
		r.cells[stage] = c
	}
	return c
}

// Open registers (or re-stamps) a request with an explicit expiry.
func (e *Exchange) Open(id string, expiry time.Time) {
	e.mu.Lock()
	e.req(id).expiry = expiry
	e.mu.Unlock()
}

// Publish completes the (id, stage) cell with v, waking every waiter.
// Publishing an already-completed cell is ignored (retries republish);
// so is publishing into a failed or closed request.
func (e *Exchange) Publish(id string, stage int, v any) {
	e.publish(id, stage, v, 0, nil)
}

// PublishCounted is Publish for a value that exactly readers Waits will
// consume: the last of them drops it, so nothing outlives its final
// read. dropped (may be nil) runs exactly once per call, outside the
// exchange's lock, when the exchange lets go of the value — on the last
// read, on Fail, Release or Expire, or right away when the publish is
// ignored or readers < 1.
func (e *Exchange) PublishCounted(id string, stage int, v any, readers int, dropped func()) {
	if (readers < 1 || !e.publish(id, stage, v, readers, dropped)) && dropped != nil {
		dropped()
	}
}

func (e *Exchange) publish(id string, stage int, v any, reads int, dropped func()) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.req(id)
	if r.err != nil || r.closed {
		return false
	}
	c := r.cell(stage)
	if c.completed() {
		return false
	}
	c.val, c.reads, c.dropped = v, reads, dropped
	close(c.done)
	return true
}

// Wait blocks until the (id, stage) cell is published, the request is
// closed/released/failed/expired, or timeout elapses. The Wait that
// takes a counted value's last read unlinks it — and, on a closed
// request with nothing else owed, the request with it.
func (e *Exchange) Wait(id string, stage int, timeout time.Duration) (any, error) {
	e.mu.Lock()
	r := e.req(id)
	if r.err != nil {
		e.mu.Unlock()
		return nil, r.err
	}
	if r.closed && r.cells[stage] == nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("dist: exchange wait %s stage %d: request closed without publishing it", id, stage)
	}
	c := r.cell(stage)
	if !c.completed() {
		e.mu.Unlock()
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-c.done:
		case <-t.C:
			return nil, fmt.Errorf("dist: exchange wait %s stage %d: timed out after %v", id, stage, timeout)
		}
		e.mu.Lock()
	}
	v, err := c.val, c.err
	var dropped func()
	if err == nil && c.reads > 0 {
		if c.reads--; c.reads == 0 {
			dropped, c.dropped = c.dropped, nil
			// The request may have been swept (and this cell unlinked)
			// while this waiter was between wake-up and lock.
			if r := e.reqs[id]; r != nil && r.cells[stage] == c {
				delete(r.cells, stage)
				if r.closed && len(r.cells) == 0 {
					delete(e.reqs, id)
				}
			}
		}
	}
	e.mu.Unlock()
	if dropped != nil {
		dropped()
	}
	return v, err
}

// Close marks a request's producer done. Values no reader is owed
// (plain publishes) are dropped, waiters parked on cells that will now
// never be published fail, and counted values stay exactly until their
// last read; the request disappears as soon as none is left. A failed
// request keeps its tombstone.
func (e *Exchange) Close(id string) {
	e.mu.Lock()
	var dropped []func()
	if r := e.reqs[id]; r != nil && r.err == nil {
		r.closed = true
		dropped = r.unlink(fmt.Errorf("dist: exchange request %s closed", id), true)
		if len(r.cells) == 0 {
			delete(e.reqs, id)
		}
	}
	e.mu.Unlock()
	runAll(dropped)
}

// Release drops a request immediately, failing parked waiters. Waiters
// arriving after Release park on a fresh auto-created cell; producers
// that abort and expect stragglers should use Fail instead.
func (e *Exchange) Release(id string) {
	e.mu.Lock()
	var dropped []func()
	if r := e.reqs[id]; r != nil {
		delete(e.reqs, id)
		dropped = r.unlink(fmt.Errorf("dist: exchange request %s released", id), false)
	}
	e.mu.Unlock()
	runAll(dropped)
}

// Fail tombstones a request until expiry: parked waiters fail now with
// err, any Wait arriving before the expiry sweep fails immediately
// instead of parking, and every value already published is dropped.
// Producers call it when their evaluation aborts, so gang partners
// mid-halo-RPC collapse at once rather than riding out their own
// timeouts.
func (e *Exchange) Fail(id string, err error, expiry time.Time) {
	e.mu.Lock()
	r := e.req(id)
	r.err = err
	r.expiry = expiry
	dropped := r.unlink(err, false)
	e.mu.Unlock()
	runAll(dropped)
}

// Expire sweeps every request whose expiry precedes now, failing parked
// waiters, and reports how many requests were dropped.
func (e *Exchange) Expire(now time.Time) int {
	e.mu.Lock()
	var dropped []func()
	n := 0
	for id, r := range e.reqs {
		if r.expiry.Before(now) {
			dropped = append(dropped, r.unlink(fmt.Errorf("dist: exchange request expired"), false)...)
			delete(e.reqs, id)
			n++
		}
	}
	e.mu.Unlock()
	runAll(dropped)
	return n
}

// Len reports how many requests are currently resident (tests, gauges).
func (e *Exchange) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.reqs)
}

// unlink removes the request's cells — all of them, or with keepOwed
// all but the counted values a reader is still owed — failing every
// pending one with err, and returns the drop notifications of the
// counted values it let go of, for the caller to run once e.mu is
// released. A waiter already woken by a publish keeps its pointer to
// the unlinked cell and still reads the value. Caller holds e.mu, which
// serializes this against publish's check-and-close.
func (r *exchangeReq) unlink(err error, keepOwed bool) []func() {
	var dropped []func()
	for stage, c := range r.cells {
		if !c.completed() {
			c.err = err
			close(c.done)
		} else if keepOwed && c.reads > 0 {
			continue
		}
		if c.dropped != nil {
			dropped = append(dropped, c.dropped)
			c.dropped = nil
		}
		delete(r.cells, stage)
	}
	return dropped
}

func runAll(fs []func()) {
	for _, f := range fs {
		f()
	}
}
