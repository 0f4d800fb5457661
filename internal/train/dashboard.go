package train

import (
	"context"
	"net"
	"net/http"
	"time"

	"splitcnn/internal/debugz"
	"splitcnn/internal/trace"
)

// Dashboard is the trainer's live HTTP endpoint (`splitcnn train
// -listen`): the debug surface (debugz) over the trainer's metrics
// registry — its /healthz answers "training", its /profilez gets the
// same per-op continuous profiler as the serving processes — and a
// self-refreshing HTML page at / that shows the run's loss, step rate
// and gradient health while it trains.
type Dashboard struct {
	ln  net.Listener
	srv *http.Server
	dbg *debugz.Surface
}

// StartDashboard listens on addr (e.g. "127.0.0.1:0" for a random
// port) and serves met in a background goroutine. Quantile gauges
// (train.step_p50_seconds/p99, exec.op_p50_seconds/p99) are refreshed
// at scrape time from the corresponding histograms.
func StartDashboard(addr string, met *trace.Metrics, enablePprof bool) (*Dashboard, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	d := &Dashboard{ln: ln, srv: &http.Server{Handler: mux}}
	d.dbg = debugz.Mount(mux, debugz.Config{
		Metrics: met, Pprof: enablePprof, Profile: true,
		Health: func(h debugz.Health) (int, any) {
			h.Status = "training"
			return http.StatusOK, h
		},
		Quantiles: []string{"train.step", "exec.op"},
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(dashboardHTML))
	})
	d.dbg.Start()
	go d.srv.Serve(ln)
	return d, nil
}

// Addr returns the bound listen address.
func (d *Dashboard) Addr() net.Addr { return d.ln.Addr() }

// Close stops the dashboard, waiting up to a second for in-flight
// scrapes.
func (d *Dashboard) Close() error {
	d.dbg.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// dashboardHTML is the live trainer page: stat tiles fed by a 1 Hz
// /metricsz poll. It reuses the report renderer's visual tokens
// (surfaces, text hierarchy, tabular numerals) so the live view and the
// post-hoc report page read as one system.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8"><title>splitcnn trainer</title>
<style>
:root{--bg:#fcfcfb;--text-1:#0b0b0b;--text-2:#52514e;--grid:#e7e6e2}
@media (prefers-color-scheme: dark){:root{--bg:#1a1a19;--text-1:#ffffff;--text-2:#c3c2b7;--grid:#33322f}}
body{background:var(--bg);color:var(--text-1);font:14px/1.45 system-ui,-apple-system,sans-serif;
  max-width:960px;margin:2rem auto;padding:0 1rem}
h1{font-size:1.3rem;margin-bottom:.2rem}
.sub{color:var(--text-2);margin-top:0}
.tiles{display:grid;grid-template-columns:repeat(auto-fill,minmax(160px,1fr));gap:.8rem;margin:1.2rem 0}
.tile{border:1px solid var(--grid);border-radius:6px;padding:.6rem .8rem}
.tile b{display:block;color:var(--text-2);font-size:.75rem;font-weight:500;
  text-transform:uppercase;letter-spacing:.04em;margin-bottom:.25rem}
.tile span{font-size:1.25rem;font-variant-numeric:tabular-nums}
#err{color:var(--text-2)}
</style></head><body>
<h1>splitcnn trainer</h1>
<p class="sub">live training telemetry · refreshes every second · <a href="/metricsz">/metricsz</a> · <a href="/healthz">/healthz</a></p>
<div class="tiles" id="tiles"></div>
<p id="err"></p>
<script>
const TILES = [
  ["train.loss","loss",v=>v.toFixed(4)],
  ["train.test_error","test error",v=>v.toFixed(4)],
  ["train.grad_norm","grad norm",v=>v.toExponential(2)],
  ["train.param_norm","param norm",v=>v.toFixed(2)],
  ["train.lr","learning rate",v=>v.toPrecision(3)],
  ["train.images_per_sec","images/s",v=>v.toFixed(1)],
  ["train.step_p50_seconds","step p50",v=>(v*1e3).toFixed(1)+" ms"],
  ["train.step_p99_seconds","step p99",v=>(v*1e3).toFixed(1)+" ms"],
  ["arena.in_use_bytes","arena in use",v=>(v/1048576).toFixed(1)+" MiB"],
];
const COUNTERS = [["train.steps","steps"],["train.epochs","epochs"],["train.guard_trips","guard trips"]];
async function tick(){
  try{
    const m = await (await fetch("/metricsz")).json();
    const g = m.gauges||{}, c = m.counters||{};
    let h = "";
    for(const [name,label] of COUNTERS)
      h += '<div class="tile"><b>'+label+'</b><span>'+(c[name]??0)+"</span></div>";
    for(const [name,label,fmt] of TILES)
      h += '<div class="tile"><b>'+label+'</b><span>'+(name in g?fmt(g[name]):"–")+"</span></div>";
    document.getElementById("tiles").innerHTML = h;
    document.getElementById("err").textContent = "";
  }catch(e){document.getElementById("err").textContent = "scrape failed: "+e;}
}
tick(); setInterval(tick, 1000);
</script></body></html>
`
