package memobs

import (
	"fmt"
	"html"
	"io"
)

// WriteHTML renders the /profilez page: one capture window's per-op
// and per-function attribution tables, download links, and the memory
// timelines of the process's compiled programs.
func WriteHTML(w io.Writer, rep *Report, timelines []*MemTimeline) {
	fmt.Fprint(w, `<!doctype html><meta charset="utf-8"><title>profilez</title><style>
body{font:14px/1.5 system-ui,sans-serif;margin:2rem;max-width:72rem}
table{border-collapse:collapse;margin:1rem 0}
th,td{border:1px solid #ccc;padding:.25rem .6rem;text-align:right}
th:first-child,td:first-child{text-align:left}
caption{font-weight:600;text-align:left;padding:.25rem 0}</style><h1>profilez</h1>`)
	fmt.Fprintf(w, `<p>Window %.2fs · sampled CPU %.3fs · <a href="?download=cpu">cpu.pprof</a> · <a href="?download=heap">heap.pprof</a> · <a href="?format=json">json</a> · reload to capture again</p>`,
		rep.WindowSeconds, rep.CPUSeconds)
	fmt.Fprint(w, `<table><caption>Per-op attribution (CPU from labeled samples; alloc joined via dominant-op leaf functions)</caption><tr><th>op</th><th>cpu s</th><th>share</th><th>alloc bytes</th><th>in-use bytes</th></tr>`)
	for _, o := range rep.Ops {
		fmt.Fprintf(w, `<tr><td>%s</td><td>%.4f</td><td>%.1f%%</td><td>%d</td><td>%d</td></tr>`,
			html.EscapeString(o.Op), o.CPUSeconds, 100*o.Share, o.AllocBytes, o.InUseBytes)
	}
	fmt.Fprint(w, `</table><table><caption>Flat per-function self cost</caption><tr><th>function</th><th>cpu s</th><th>alloc bytes</th><th>in-use bytes</th></tr>`)
	for _, f := range rep.Funcs {
		fmt.Fprintf(w, `<tr><td>%s</td><td>%.4f</td><td>%d</td><td>%d</td></tr>`,
			html.EscapeString(f.Name), f.CPUSeconds, f.AllocBytes, f.InUseBytes)
	}
	fmt.Fprint(w, `</table>`)
	for _, tl := range timelines {
		if tl == nil {
			continue
		}
		fmt.Fprintf(w, `<table><caption>Memory timeline (high water %d B · scratch high water %d B · planned slab %d B)</caption><tr><th>step</th><th>op</th><th>referenced B</th><th>live B</th><th>written B</th></tr>`,
			tl.MeasuredHighWater, tl.ScratchHighWater, tl.PlannedSlabBytes)
		for i, s := range tl.Samples {
			fmt.Fprintf(w, `<tr><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td></tr>`,
				i, html.EscapeString(s.Name), s.RefBytes, s.LiveBytes, s.WrittenBytes)
		}
		fmt.Fprint(w, `</table>`)
	}
}
