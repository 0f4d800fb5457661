package distserve

import (
	"fmt"
	"sort"
	"time"

	"splitcnn/internal/trace"
)

// Cross-process trace stitching: a sampled request's workers return
// their stage and halo spans in their Shard.Eval replies, the router
// pulls those worker-clock timestamps onto its own clock with an offset
// read from the very call that carried them, and lays everything onto
// one timeline with a row per process. One sampled request reads as
// router lanes (admit → scatter_gather → gather → tail → respond) with
// each worker's shard_eval, stage and halo spans nested under them.

// Router-side span parentage. The "request" span is the root.
var routerSpanParents = map[string]string{
	"admit":          "request",
	"scatter_gather": "request",
	"gather":         "request",
	"tail":           "request",
	"respond":        "request",
}

// scatterSpanName is the router span every cross-process worker span
// parents under: workers are only active inside the scatter window.
const scatterSpanName = "scatter_gather"

// StitchedSpan is one span on the unified, router-clock timeline.
type StitchedSpan struct {
	// Process names the timeline row: "router" or "shard<i> <addr>".
	Process string
	// Name / Parent: span identity and the span it must nest under
	// (same process preferred, any process otherwise; "" = root).
	Name   string
	Parent string
	// Start/End are on the router's clock (worker times skew-corrected).
	Start, End time.Time
	// Uncertainty bounds how far this span's timestamps may sit from
	// truth after skew correction (see placeShards; zero for
	// router-local spans).
	Uncertainty time.Duration
}

// ProcessSpans is one process's contribution to a stitched timeline.
type ProcessSpans struct {
	Process     string
	Skew        time.Duration // process clock − router clock
	Uncertainty time.Duration
	Spans       []WireSpan
}

// placeShards gathers a sampled attempt's worker spans into one
// ProcessSpans per shard, each with its clock offset. The router's call
// to shard i was sent at sent[i] and answered rtts[i] later, and the
// worker's handler ran inside it for reply.Dur from reply.StartUnixNano
// on its own clock. The offset is the handler's midpoint less the
// call's: since the handler's true midpoint lies within (RTT − Dur)/2
// of the call's, that is the uncertainty, and a placed shard_eval nests
// inside the call by construction. A halo_serve span that a fetcher
// relayed lands on the row, and clock, of the owner named by its Shard.
func placeShards(addrs []string, sent []time.Time, rtts []time.Duration, replies []EvalReply) []ProcessSpans {
	procs := make([]ProcessSpans, len(replies))
	for i, r := range replies {
		mid := sent[i].UnixNano() + int64(rtts[i]/2)
		procs[i] = ProcessSpans{
			Process:     fmt.Sprintf("shard%d %s", i, addrs[i]),
			Skew:        time.Duration(r.StartUnixNano + int64(r.Dur/2) - mid),
			Uncertainty: max(0, (rtts[i]-r.Dur)/2),
			Spans: []WireSpan{{Name: "shard_eval", Shard: i,
				StartUnixNano: r.StartUnixNano, EndUnixNano: r.StartUnixNano + int64(r.Dur)}},
		}
	}
	for _, r := range replies {
		for _, s := range r.Spans {
			if s.Shard >= 0 && s.Shard < len(procs) {
				procs[s.Shard].Spans = append(procs[s.Shard].Spans, s)
			}
		}
	}
	return procs
}

// Stitch corrects every process's spans onto the router clock; a span
// with no parent parents under the router's scatter_gather. Span order
// is preserved per process.
func Stitch(procs []ProcessSpans) []StitchedSpan {
	var out []StitchedSpan
	for _, p := range procs {
		for _, s := range p.Spans {
			parent := s.Parent
			if parent == "" {
				parent = scatterSpanName
			}
			out = append(out, StitchedSpan{
				Process:     p.Process,
				Name:        s.Name,
				Parent:      parent,
				Start:       time.Unix(0, s.StartUnixNano-p.Skew.Nanoseconds()),
				End:         time.Unix(0, s.EndUnixNano-p.Skew.Nanoseconds()),
				Uncertainty: p.Uncertainty,
			})
		}
	}
	return out
}

// VerifyStitched checks the stitched timeline's causal structure: every
// span ends at or after it starts, and every non-root span nests inside
// some span named by its Parent — same-process parents matched exactly,
// cross-process parents within the combined clock uncertainty of the
// two processes. A failure means the skew correction (or the stitching
// itself) produced a physically impossible timeline.
func VerifyStitched(spans []StitchedSpan) error {
	byName := map[string][]*StitchedSpan{}
	for i := range spans {
		s := &spans[i]
		if s.End.Before(s.Start) {
			return fmt.Errorf("stitch: span %s/%s ends %v before it starts",
				s.Process, s.Name, s.Start.Sub(s.End))
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == "" {
			continue
		}
		parents := byName[s.Parent]
		if len(parents) == 0 {
			return fmt.Errorf("stitch: span %s/%s has no parent named %q",
				s.Process, s.Name, s.Parent)
		}
		ok := false
		for _, p := range parents {
			eps := time.Duration(0)
			if p.Process != s.Process {
				eps = s.Uncertainty + p.Uncertainty
			}
			if !s.Start.Before(p.Start.Add(-eps)) && !s.End.After(p.End.Add(eps)) {
				ok = true
				break
			}
		}
		if !ok {
			p := parents[0]
			return fmt.Errorf("stitch: span %s/%s [%v, %v] escapes parent %q [%v, %v] (slack %v)",
				s.Process, s.Name, s.Start.UnixNano(), s.End.UnixNano(),
				s.Parent, p.Start.UnixNano(), p.End.UnixNano(), s.Uncertainty+p.Uncertainty)
		}
	}
	return nil
}

// ExportStitched lays a verified timeline into tracer as one row per
// process, tagging every event with the request ID and its parent span
// name so the export is re-parseable (report -dist, tests) without a
// side channel.
func ExportStitched(tracer *trace.WallTracer, reqID string, spans []StitchedSpan) {
	for _, s := range spans {
		args := map[string]any{"request": reqID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		if s.Uncertainty > 0 {
			args["clock_unc_us"] = float64(s.Uncertainty.Microseconds())
		}
		tracer.SpanAt(s.Process, s.Name, s.Start, s.End, args)
	}
}

// StitchedFromEvents reconstructs a stitched timeline from exported
// Chrome trace events (the inverse of ExportStitched), filtered to one
// request ID. Events carry microsecond floats, so round-tripped times
// are exact only to the microsecond. Returns spans sorted by start.
func StitchedFromEvents(events []trace.Event, reqID string) []StitchedSpan {
	var out []StitchedSpan
	for _, e := range events {
		if e.Args == nil || e.Args["request"] != reqID {
			continue
		}
		s := StitchedSpan{
			Process: e.Cat,
			Name:    e.Name,
			Start:   time.Unix(0, int64(e.TS*1e3)),
			End:     time.Unix(0, int64((e.TS+e.Dur)*1e3)),
		}
		if p, ok := e.Args["parent"].(string); ok {
			s.Parent = p
		}
		if u, ok := e.Args["clock_unc_us"].(float64); ok {
			s.Uncertainty = time.Duration(u * 1e3)
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
