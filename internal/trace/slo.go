package trace

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the SLO layer of the observability plane: declarable
// latency/error objectives tracked as multi-window burn rates, in the
// style of the SRE-workbook alerting policy. A burn rate of 1.0 means
// the service is consuming its error budget exactly as fast as the
// objective allows; 10× over the short window means the budget will be
// gone within hours. Two windows (5m and 1h) make the gauges usable for
// both paging (fast window catches acute breakage) and ticketing (slow
// window catches smoldering regressions).

// SLO is a declared service-level objective for a serving endpoint:
// "quantile q of requests complete under LatencyTarget, and at most
// ErrBudget of requests may fail".
type SLO struct {
	// LatencyQuantile is the objective quantile in (0, 1), e.g. 0.99.
	LatencyQuantile float64
	// LatencyTarget is the latency bound at that quantile.
	LatencyTarget time.Duration
	// ErrBudget is the allowed failing-request fraction in (0, 1],
	// e.g. 0.001 for "99.9% availability".
	ErrBudget float64
}

// Burn windows: the fast window pages, the slow window tickets.
const (
	SLOFastWindow = 5 * time.Minute
	SLOSlowWindow = time.Hour
)

// ParseSLO parses the -slo flag syntax: comma-separated clauses
// `p<quantile>=<duration>` and `err=<percent>%` (or a bare fraction),
// e.g. "p99=50ms,err=0.1%". Either clause may be omitted; omitted
// objectives default to p99=100ms and err=1%.
func ParseSLO(s string) (SLO, error) {
	slo := SLO{LatencyQuantile: 0.99, LatencyTarget: 100 * time.Millisecond, ErrBudget: 0.01}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return SLO{}, fmt.Errorf("slo: clause %q is not key=value", clause)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch {
		case strings.HasPrefix(k, "p"):
			pct, err := strconv.ParseFloat(k[1:], 64)
			if err != nil || pct <= 0 || pct >= 100 {
				return SLO{}, fmt.Errorf("slo: bad quantile %q (want p50..p99.9)", k)
			}
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return SLO{}, fmt.Errorf("slo: bad latency target %q: want a positive duration", v)
			}
			slo.LatencyQuantile = pct / 100
			slo.LatencyTarget = d
		case k == "err":
			frac, err := parsePercent(v)
			if err != nil {
				return SLO{}, fmt.Errorf("slo: bad error budget %q: %v", v, err)
			}
			if frac <= 0 || frac > 1 {
				return SLO{}, fmt.Errorf("slo: error budget %q out of (0%%, 100%%]", v)
			}
			slo.ErrBudget = frac
		default:
			return SLO{}, fmt.Errorf("slo: unknown clause key %q (want p<q> or err)", k)
		}
	}
	return slo, nil
}

// parsePercent parses "0.1%" → 0.001 or a bare fraction "0.001" → 0.001.
func parsePercent(v string) (float64, error) {
	if p, ok := strings.CutSuffix(v, "%"); ok {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		return f / 100, err
	}
	f, err := strconv.ParseFloat(v, 64)
	return f, err
}

// String renders the SLO back in flag syntax.
func (s SLO) String() string {
	return fmt.Sprintf("p%s=%s,err=%s%%",
		strconv.FormatFloat(s.LatencyQuantile*100, 'g', -1, 64),
		s.LatencyTarget,
		strconv.FormatFloat(s.ErrBudget*100, 'g', -1, 64))
}

// sloBucket is one second of request outcomes.
type sloBucket struct {
	sec   int64 // unix second this bucket currently holds
	total int64
	slow  int64
	errs  int64
}

// SLOTracker tracks one SLO over per-second ring buckets large enough
// for the slow window. Buckets invalidate lazily (a bucket stamped with
// a stale second resets on next touch), so there is no sweeper
// goroutine and an idle tracker costs nothing.
type SLOTracker struct {
	slo SLO
	now func() time.Time

	mu      sync.Mutex
	buckets []sloBucket
}

// NewSLOTracker returns a tracker for the given objective.
func NewSLOTracker(slo SLO) *SLOTracker {
	return &SLOTracker{
		slo:     slo,
		now:     time.Now,
		buckets: make([]sloBucket, int(SLOSlowWindow/time.Second)+1),
	}
}

// SetClock overrides the tracker's time source (tests).
func (t *SLOTracker) SetClock(now func() time.Time) {
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// Observe records one finished request. isErr marks a request that
// spends error budget (the router counts 5xx outcomes); a slow success
// spends latency budget only. Safe on a nil tracker (no SLO declared).
func (t *SLOTracker) Observe(latency time.Duration, isErr bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sec := t.now().Unix()
	b := &t.buckets[sec%int64(len(t.buckets))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	b.total++
	if latency > t.slo.LatencyTarget {
		b.slow++
	}
	if isErr {
		b.errs++
	}
}

// Burn returns the latency and error burn rates over the given window:
// the observed bad-event fraction divided by the fraction the objective
// allows. 1.0 = consuming budget exactly at the allowed rate; 0 when no
// requests landed in the window.
func (t *SLOTracker) Burn(window time.Duration) (latency, errs float64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lo := t.now().Unix() - int64(window/time.Second)
	var total, slow, bad int64
	for i := range t.buckets {
		b := &t.buckets[i]
		if b.sec > lo {
			total += b.total
			slow += b.slow
			bad += b.errs
		}
	}
	if total == 0 {
		return 0, 0
	}
	slowBudget := 1 - t.slo.LatencyQuantile
	if slowBudget <= 0 {
		slowBudget = 1e-9
	}
	return (float64(slow) / float64(total)) / slowBudget,
		(float64(bad) / float64(total)) / t.slo.ErrBudget
}

// Publish refreshes the burn-rate and objective gauges on m:
// slo.latency_burn_5m/1h, slo.error_burn_5m/1h plus the declared
// objective (slo.latency_target_seconds, slo.latency_quantile,
// slo.error_budget) so a scrape is self-describing. No-op on a nil
// tracker.
func (t *SLOTracker) Publish(m *Metrics) {
	if t == nil || m == nil {
		return
	}
	lf, ef := t.Burn(SLOFastWindow)
	ls, es := t.Burn(SLOSlowWindow)
	m.Gauge("slo.latency_burn_5m").Set(lf)
	m.Gauge("slo.error_burn_5m").Set(ef)
	m.Gauge("slo.latency_burn_1h").Set(ls)
	m.Gauge("slo.error_burn_1h").Set(es)
	m.Gauge("slo.latency_target_seconds").Set(t.slo.LatencyTarget.Seconds())
	m.Gauge("slo.latency_quantile").Set(t.slo.LatencyQuantile)
	m.Gauge("slo.error_budget").Set(t.slo.ErrBudget)
}
