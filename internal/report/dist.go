package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"splitcnn/internal/trace"
)

// DistReport renders one stitched distributed request — the timeline
// /tracez exports after cross-process stitching — as a gantt
// page: the router's critical-path lane on top (its request span
// decomposed into admit → scatter_gather → gather → tail → respond,
// idle gaps shown explicitly), then one forward lane and one halo lane
// per shard process.
//
// Like the memory reports, the page self-verifies: the router lane is
// a gap-free decomposition of the request span, so the summed plotted
// segments must equal the measured request duration. The two are
// returned in the summary and the report subcommand refuses to write a
// page where they disagree beyond Chrome-event microsecond rounding —
// a mismatch means the stitched spans overlap or escape the request
// window, i.e. the timeline lies.

// distSpan is one stitched span parsed back out of its exported Chrome
// trace event (ExportStitched's args contract: "request", "parent",
// "clock_unc_us"). Times are seconds relative to the request root.
type distSpan struct {
	Process, Name, Parent string
	Start, End            float64
	UncUs                 float64
}

// DistSummary carries the self-verification quantities of one report.
type DistSummary struct {
	Request   string
	Processes int
	Spans     int
	// PlottedSeconds sums the router critical-path lane's segments
	// (request children plus explicit idle fillers); RequestSeconds is
	// the measured request span. They are the same quantity computed
	// two ways.
	PlottedSeconds float64
	RequestSeconds float64
}

// Verify checks the critical-path identity. Chrome events carry
// microsecond floats, so equality holds only to that grain.
func (s DistSummary) Verify() error {
	if d := math.Abs(s.PlottedSeconds - s.RequestSeconds); d > 2e-6 {
		return fmt.Errorf("report: plotted critical path %.9fs != measured request span %.9fs (off by %v)",
			s.PlottedSeconds, s.RequestSeconds, HumanSeconds(d))
	}
	return nil
}

// DistRequests lists the request IDs present in a trace export, most
// spans first (fully stitched requests sort ahead of router-only ones).
func DistRequests(events []trace.Event) []string {
	count := map[string]int{}
	for _, e := range events {
		if id, _ := e.Args["request"].(string); id != "" {
			count[id]++
		}
	}
	ids := make([]string, 0, len(count))
	for id := range count {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if count[ids[i]] != count[ids[j]] {
			return count[ids[i]] > count[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// DistReport builds the gang-timeline report for one request. An empty
// reqID picks the request with the most spans in the export.
func DistReport(title string, events []trace.Event, reqID string) (*Data, DistSummary, error) {
	if reqID == "" {
		ids := DistRequests(events)
		if len(ids) == 0 {
			return nil, DistSummary{}, fmt.Errorf("report: no request-tagged spans in the trace")
		}
		reqID = ids[0]
	}

	spans, root, err := parseDistSpans(events, reqID)
	if err != nil {
		return nil, DistSummary{}, err
	}

	routerLane, plotted := criticalPathLane(spans, root)
	lanes := []Lane{{Name: root.Process, Spans: routerLane}}
	lanes = append(lanes, shardLanes(spans, root.Process)...)

	sum := DistSummary{
		Request:        reqID,
		Spans:          len(spans),
		PlottedSeconds: plotted,
		RequestSeconds: root.End - root.Start,
	}
	procs := map[string]bool{}
	var maxUnc float64
	for _, s := range spans {
		procs[s.Process] = true
		maxUnc = math.Max(maxUnc, s.UncUs)
	}
	sum.Processes = len(procs)

	d := &Data{
		Title: title,
		Subtitle: fmt.Sprintf("request %s · %d processes · %d spans · %s end to end",
			reqID, sum.Processes, sum.Spans, HumanSeconds(sum.RequestSeconds)),
		Facts: []KV{
			{"request", reqID},
			{"duration", HumanSeconds(sum.RequestSeconds)},
			{"critical path (plotted)", HumanSeconds(sum.PlottedSeconds)},
			{"processes", fmt.Sprint(sum.Processes)},
			{"spans", fmt.Sprint(sum.Spans)},
			{"max clock uncertainty", HumanSeconds(maxUnc / 1e6)},
		},
		Charts: []Chart{{
			Title: "gang timeline",
			Note:  "router critical path on top; skew-corrected shard forward and halo lanes below",
			Lanes: lanes,
		}},
	}

	table := &Table{
		Caption: "stitched spans",
		Header:  []string{"process", "span", "parent", "start", "end", "duration"},
	}
	ordered := append([]distSpan(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	for _, s := range ordered {
		table.Rows = append(table.Rows, []string{
			s.Process, s.Name, s.Parent,
			HumanSeconds(s.Start), HumanSeconds(s.End), HumanSeconds(s.End - s.Start),
		})
	}
	d.Table = table
	return d, sum, nil
}

// parseDistSpans filters the export to one request, finds its root
// (the parentless "request" span), and rebases every span to seconds
// from the root's start.
func parseDistSpans(events []trace.Event, reqID string) ([]distSpan, distSpan, error) {
	var spans []distSpan
	rootIdx := -1
	for _, e := range events {
		if id, _ := e.Args["request"].(string); id != reqID {
			continue
		}
		s := distSpan{
			Process: e.Cat,
			Name:    e.Name,
			Start:   e.TS / 1e6,
			End:     (e.TS + e.Dur) / 1e6,
		}
		if p, ok := e.Args["parent"].(string); ok {
			s.Parent = p
		}
		if u, ok := e.Args["clock_unc_us"].(float64); ok {
			s.UncUs = u
		}
		if s.Name == "request" && s.Parent == "" {
			if rootIdx >= 0 {
				return nil, distSpan{}, fmt.Errorf("report: request %s has two root spans", reqID)
			}
			rootIdx = len(spans)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		return nil, distSpan{}, fmt.Errorf("report: no spans for request %q", reqID)
	}
	if rootIdx < 0 {
		return nil, distSpan{}, fmt.Errorf("report: request %q has no root request span", reqID)
	}
	root := spans[rootIdx]
	t0 := root.Start
	for i := range spans {
		spans[i].Start -= t0
		spans[i].End -= t0
	}
	root.Start, root.End = 0, root.End-t0
	return spans, root, nil
}

// criticalPathLane decomposes the request span into the router's child
// phases plus explicit idle fillers, returning the lane and the summed
// plotted length. When the children are disjoint and inside the request
// window — the only physically sensible shape — the sum equals the
// request duration exactly; overlapping or escaping children inflate it
// and fail DistSummary.Verify.
func criticalPathLane(spans []distSpan, root distSpan) ([]LaneSpan, float64) {
	var kids []distSpan
	for _, s := range spans {
		if s.Process == root.Process && s.Parent == root.Name {
			kids = append(kids, s)
		}
	}
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })

	var lane []LaneSpan
	plotted := 0.0
	cursor := root.Start
	add := func(s LaneSpan) {
		lane = append(lane, s)
		plotted += s.End - s.Start
	}
	for _, k := range kids {
		if k.Start > cursor {
			add(LaneSpan{Start: cursor, End: k.Start, Label: "idle", Series: -1})
		}
		series := 0
		if k.Name == "scatter_gather" {
			series = 1
		}
		add(LaneSpan{Start: k.Start, End: k.End, Label: k.Name, Series: series})
		cursor = math.Max(cursor, k.End)
	}
	if cursor < root.End {
		add(LaneSpan{Start: cursor, End: root.End, Label: "idle", Series: -1})
	}
	return lane, plotted
}

// shardLanes builds one forward lane (shard_eval under its stage spans)
// and one halo lane (waits and serves) per non-router process.
func shardLanes(spans []distSpan, routerProc string) []Lane {
	byProc := map[string][]distSpan{}
	var procs []string
	for _, s := range spans {
		if s.Process == routerProc {
			continue
		}
		if _, ok := byProc[s.Process]; !ok {
			procs = append(procs, s.Process)
		}
		byProc[s.Process] = append(byProc[s.Process], s)
	}
	sort.Strings(procs)

	var lanes []Lane
	for _, proc := range procs {
		var fwd, halo []LaneSpan
		for _, s := range byProc[proc] {
			switch {
			case s.Name == "shard_eval":
				// Background block drawn first; stages layer on top.
				fwd = append([]LaneSpan{{Start: s.Start, End: s.End, Label: s.Name, Series: -1}}, fwd...)
			case strings.HasPrefix(s.Name, "stage:"):
				fwd = append(fwd, LaneSpan{Start: s.Start, End: s.End,
					Label: strings.TrimPrefix(s.Name, "stage:"), Series: 0})
			case strings.HasPrefix(s.Name, "halo_wait:"):
				halo = append(halo, LaneSpan{Start: s.Start, End: s.End, Label: s.Name, Series: 1})
			case strings.HasPrefix(s.Name, "halo_serve:"):
				halo = append(halo, LaneSpan{Start: s.Start, End: s.End, Label: s.Name, Series: 2})
			}
		}
		if len(fwd) > 0 {
			lanes = append(lanes, Lane{Name: proc, Spans: fwd})
		}
		if len(halo) > 0 {
			lanes = append(lanes, Lane{Name: proc + " · halo", Spans: halo})
		}
	}
	return lanes
}
