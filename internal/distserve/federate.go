package distserve

import (
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"splitcnn/internal/debugz"
	"splitcnn/internal/trace"
)

// Metrics federation: the router scrapes every healthy worker's
// registry (Shard.Metrics) at request time and aggregates the snapshots
// into /clusterz — per-worker series plus cluster rollups. Three
// renderings share one collection pass: HTML (default), Prometheus text
// (?format=prom, per-worker samples labeled worker="addr" and rollups
// unlabeled), and JSON (?format=json, the raw snapshots — what the
// consistency tests compare against).

// clusterView is one collection pass over the fleet.
type clusterView struct {
	// Workers holds each reachable worker's snapshot, keyed by address.
	Workers map[string]trace.Snapshot `json:"workers"`
	// Unreachable lists workers that did not answer the scrape.
	Unreachable []string `json:"unreachable,omitempty"`
	// Cluster is the rollup registry snapshot (cluster.* gauges).
	Cluster trace.Snapshot `json:"cluster"`
}

// collectCluster fans Shard.Metrics out to every healthy worker and
// computes the rollups. Worker scrape failures degrade to the
// Unreachable list — a dead worker can't take /clusterz down.
func (rt *Router) collectCluster() clusterView {
	type target struct {
		addr       string
		healthy    bool
		inflight   int64
		maxPods    int
		dispatched uint64
	}
	rt.mu.Lock()
	targets := make([]target, 0, len(rt.workers))
	for _, ws := range rt.workers {
		targets = append(targets, target{
			addr: ws.addr, healthy: ws.healthy,
			inflight: ws.inflight.Load(), maxPods: ws.maxPods,
			dispatched: ws.dispatched.Load(),
		})
	}
	rt.mu.Unlock()

	snaps := make([]trace.Snapshot, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		if !t.healthy {
			errs[i] = fmt.Errorf("unhealthy")
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			var mr MetricsReply
			if err := rt.pool.Call(addr, "Shard.Metrics", &MetricsArgs{}, &mr, time.Second); err != nil {
				errs[i] = err
				return
			}
			snaps[i] = mr.Snap
		}(i, t.addr)
	}
	wg.Wait()

	view := clusterView{Workers: map[string]trace.Snapshot{}}
	roll := trace.NewMetrics()
	var sumInflight, sumPods int64
	var healthy int
	var workerRequests, routerDispatched uint64
	consistent := true
	haloWait := trace.HistogramSnapshot{}
	stageSecs := trace.HistogramSnapshot{}
	reqMem := trace.HistogramSnapshot{}
	var sumHeap, maxHeap, sumHeapSys, sumExch, maxExch float64
	for i, t := range targets {
		sumInflight += t.inflight
		sumPods += int64(t.maxPods)
		if errs[i] != nil {
			view.Unreachable = append(view.Unreachable, t.addr)
			continue
		}
		healthy++
		view.Workers[t.addr] = snaps[i]
		// Consistency rollup over the *reachable* set only: dead or
		// ejected workers can neither report nor be dispatched to, so
		// restricting both sides to reachable workers keeps the
		// invariant meaningful through crashes.
		workerRequests += uint64(snaps[i].Counters["dist.worker.requests"])
		routerDispatched += t.dispatched
		if h, ok := snaps[i].Histograms["dist.worker.halo_wait_seconds"]; ok {
			if m, err := haloWait.Merge(h); err == nil {
				haloWait = m
			}
		}
		if h, ok := snaps[i].Histograms["dist.worker.stage_seconds"]; ok {
			if m, err := stageSecs.Merge(h); err == nil {
				stageSecs = m
			}
		}
		if h, ok := snaps[i].Histograms["dist.worker.request_mem_bytes"]; ok {
			if m, err := reqMem.Merge(h); err == nil {
				reqMem = m
			}
		}
		// Fleet memory rollup from each worker's runtime.* gauges,
		// refreshed by its Shard.Metrics call.
		heap := snaps[i].Gauges["runtime.heap_alloc_bytes"]
		sumHeap += heap
		if heap > maxHeap {
			maxHeap = heap
		}
		sumHeapSys += snaps[i].Gauges["runtime.heap_sys_bytes"]
		// Halo rows parked on the worker's exchange: the retention that
		// heap gauges only show after the fact.
		exch := snaps[i].Gauges["dist.worker.exchange_resident_bytes"]
		sumExch += exch
		maxExch = max(maxExch, exch)
		// In-flight dispatches are counted on the router side the
		// moment the reply lands, but on the worker side when the eval
		// *starts* — so mid-load the worker side may run ahead, never
		// behind.
		if uint64(snaps[i].Counters["dist.worker.requests"]) < t.dispatched {
			consistent = false
		}
	}

	roll.Gauge("cluster.workers").Set(float64(len(targets)))
	roll.Gauge("cluster.workers_reachable").Set(float64(healthy))
	if sumPods > 0 {
		roll.Gauge("cluster.gang_occupancy").Set(float64(sumInflight) / float64(sumPods))
	}
	roll.Gauge("cluster.worker_requests_total").Set(float64(workerRequests))
	roll.Gauge("cluster.router_dispatches_total").Set(float64(routerDispatched))
	if !consistent || workerRequests < routerDispatched {
		consistent = false
	}
	roll.Gauge("cluster.requests_consistent").Set(b2f(consistent))
	roll.Gauge("cluster.halo_wait_p50_seconds").Set(haloWait.Quantile(0.5))
	roll.Gauge("cluster.halo_wait_p99_seconds").Set(haloWait.Quantile(0.99))
	roll.Gauge("cluster.stage_p50_seconds").Set(stageSecs.Quantile(0.5))
	roll.Gauge("cluster.stage_p99_seconds").Set(stageSecs.Quantile(0.99))
	// Fleet-wide memory: total and hottest-worker heap (from each
	// worker's runtime.* gauges), halo bytes resident on the exchanges,
	// plus the merged per-request transfer footprint distribution.
	roll.Gauge("cluster.mem.heap_alloc_bytes_total").Set(sumHeap)
	roll.Gauge("cluster.mem.heap_alloc_bytes_max_worker").Set(maxHeap)
	roll.Gauge("cluster.mem.heap_sys_bytes_total").Set(sumHeapSys)
	roll.Gauge("cluster.mem.exchange_bytes_total").Set(sumExch)
	roll.Gauge("cluster.mem.exchange_bytes_max_worker").Set(maxExch)
	roll.Gauge("cluster.mem.request_bytes_p50").Set(reqMem.Quantile(0.5))
	roll.Gauge("cluster.mem.request_bytes_p99").Set(reqMem.Quantile(0.99))
	fwd := rt.met.Histogram("dist.shard_forward_seconds", trace.LatencyBuckets)
	roll.Gauge("cluster.shard_forward_p50_seconds").Set(fwd.Quantile(0.5))
	roll.Gauge("cluster.shard_forward_p99_seconds").Set(fwd.Quantile(0.99))
	strag := rt.met.Histogram("dist.straggler_ratio", stragglerBuckets)
	roll.Gauge("cluster.straggler_p50").Set(strag.Quantile(0.5))
	roll.Gauge("cluster.straggler_p99").Set(strag.Quantile(0.99))
	view.Cluster = roll.Snapshot()
	return view
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleClusterz serves the federated cluster view.
func (rt *Router) handleClusterz(w http.ResponseWriter, r *http.Request) {
	view := rt.collectCluster()
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		format = "prom"
	}
	switch format {
	case "prom", "text":
		parts := []trace.LabeledSnapshot{{Snap: view.Cluster}}
		addrs := make([]string, 0, len(view.Workers))
		for addr := range view.Workers {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		for _, addr := range addrs {
			parts = append(parts, trace.LabeledSnapshot{
				Labels: map[string]string{"worker": addr},
				Snap:   view.Workers[addr],
			})
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		trace.WritePrometheusParts(w, parts)
	case "json":
		debugz.WriteJSON(w, http.StatusOK, view)
	default:
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		renderClusterHTML(w, view)
	}
}

// renderClusterHTML is a dependency-free one-page view: rollups first,
// then one column per worker of its headline counters.
func renderClusterHTML(w http.ResponseWriter, view clusterView) {
	fmt.Fprint(w, "<!doctype html><html><head><meta charset=\"utf-8\"><title>clusterz</title>",
		"<style>body{font:14px system-ui;margin:2em}table{border-collapse:collapse}",
		"td,th{border:1px solid #ccc;padding:4px 10px;text-align:right}",
		"th{background:#f2f2f2}td:first-child,th:first-child{text-align:left}</style>",
		"</head><body><h1>Cluster metrics</h1>")

	fmt.Fprint(w, "<h2>Rollups</h2><table><tr><th>gauge</th><th>value</th></tr>")
	keys := make([]string, 0, len(view.Cluster.Gauges))
	for k := range view.Cluster.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%g</td></tr>", html.EscapeString(k), view.Cluster.Gauges[k])
	}
	fmt.Fprint(w, "</table>")

	addrs := make([]string, 0, len(view.Workers))
	for addr := range view.Workers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	headline := []string{
		"dist.worker.requests", "dist.worker.halo_requests",
		"dist.worker.capacity_rejects", "dist.worker.errors",
	}
	fmt.Fprint(w, "<h2>Workers</h2><table><tr><th>counter</th>")
	for _, addr := range addrs {
		fmt.Fprintf(w, "<th>%s</th>", html.EscapeString(addr))
	}
	fmt.Fprint(w, "</tr>")
	for _, name := range headline {
		fmt.Fprintf(w, "<tr><td>%s</td>", html.EscapeString(name))
		for _, addr := range addrs {
			fmt.Fprintf(w, "<td>%d</td>", view.Workers[addr].Counters[name])
		}
		fmt.Fprint(w, "</tr>")
	}
	fmt.Fprint(w, "</table>")
	if len(view.Unreachable) > 0 {
		fmt.Fprintf(w, "<p>Unreachable: %s</p>", html.EscapeString(strings.Join(view.Unreachable, ", ")))
	}
	fmt.Fprint(w, "</body></html>")
}
