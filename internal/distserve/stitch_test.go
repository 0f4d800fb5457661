package distserve

import (
	"strings"
	"testing"
	"time"

	"splitcnn/internal/trace"
)

// TestStitchCorrectsSyntheticSkew places a sampled attempt whose two
// workers' clocks run an hour ahead and an hour behind the router's,
// each offset read only from the Eval call that carried the spans: every
// worker span must land inside the router's timing of its call, within
// its uncertainty of the truth; a relayed halo_serve must land on its
// owner's row; and with the offsets' signs flipped the timeline must
// fail verification.
func TestStitchCorrectsSyntheticSkew(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	ms := func(v float64) time.Time { return base.Add(time.Duration(v * float64(time.Millisecond))) }
	offsets := []time.Duration{time.Hour, -time.Hour} // worker clock − router clock
	// wire reads a true router-clock interval [a, b] ms off shard's clock.
	wire := func(name, parent string, shard int, a, b float64) WireSpan {
		return WireSpan{Name: name, Parent: parent, Shard: shard,
			StartUnixNano: ms(a).Add(offsets[shard]).UnixNano(), EndUnixNano: ms(b).Add(offsets[shard]).UnixNano()}
	}
	router := []StitchedSpan{
		{Process: "router", Name: "request", Start: ms(0), End: ms(100)},
		{Process: "router", Name: scatterSpanName, Parent: "request", Start: ms(10), End: ms(90)},
	}
	// The router's calls: shard 0 over [12, 82], shard 1 over [13, 85].
	sent := []time.Time{ms(12), ms(13)}
	rtts := []time.Duration{70 * time.Millisecond, 72 * time.Millisecond}
	// The handlers ran over [15, 80] and [17, 83]; each shard fetched a
	// halo from the other, which served it on its own clock.
	replies := []EvalReply{
		{StartUnixNano: ms(15).Add(offsets[0]).UnixNano(), Dur: 65 * time.Millisecond, Spans: []WireSpan{
			wire("stage:conv1", "shard_eval", 0, 16, 30),
			wire("halo_wait:s0", "shard_eval", 0, 30, 40),
			wire("halo_serve:s0", "", 1, 31, 39),
			wire("stage:conv2", "shard_eval", 0, 40, 79),
		}},
		{StartUnixNano: ms(17).Add(offsets[1]).UnixNano(), Dur: 66 * time.Millisecond, Spans: []WireSpan{
			wire("stage:conv1", "shard_eval", 1, 18, 30),
			wire("halo_wait:s0", "shard_eval", 1, 30, 36),
			wire("halo_serve:s0", "", 0, 31, 35),
			wire("stage:conv2", "shard_eval", 1, 36, 82),
		}},
	}
	truth := map[string][2]float64{
		"shard0 w0/shard_eval": {15, 80}, "shard0 w0/stage:conv1": {16, 30},
		"shard0 w0/halo_wait:s0": {30, 40}, "shard0 w0/stage:conv2": {40, 79},
		"shard0 w0/halo_serve:s0": {31, 35},
		"shard1 w1/shard_eval":    {17, 83}, "shard1 w1/stage:conv1": {18, 30},
		"shard1 w1/halo_wait:s0": {30, 36}, "shard1 w1/stage:conv2": {36, 82},
		"shard1 w1/halo_serve:s0": {31, 39},
	}

	procs := placeShards([]string{"w0", "w1"}, sent, rtts, replies)
	placed := Stitch(procs)
	if len(placed) != len(truth) {
		t.Fatalf("placed %d spans, want %d", len(placed), len(truth))
	}
	for _, s := range placed {
		key := s.Process + "/" + s.Name
		want, ok := truth[key]
		if !ok {
			t.Fatalf("unexpected span %s", key)
		}
		for _, d := range []time.Duration{s.Start.Sub(ms(want[0])), s.End.Sub(ms(want[1]))} {
			if d < -s.Uncertainty || d > s.Uncertainty {
				t.Errorf("%s placed %v from the truth, uncertainty %v", key, d, s.Uncertainty)
			}
		}
		if strings.HasPrefix(s.Name, "halo_serve:") {
			continue // served inside the fetcher's call, not the owner's
		}
		i := map[string]int{"shard0 w0": 0, "shard1 w1": 1}[s.Process]
		if s.Start.Before(sent[i]) || s.End.After(sent[i].Add(rtts[i])) {
			t.Errorf("%s [%v, %v] escapes the router's call [%v, %v]", key,
				s.Start.Sub(base), s.End.Sub(base), sent[i].Sub(base), sent[i].Add(rtts[i]).Sub(base))
		}
	}
	if err := VerifyStitched(append(append([]StitchedSpan(nil), router...), placed...)); err != nil {
		t.Fatalf("placed timeline failed verification: %v", err)
	}

	// Offsets applied the wrong way round put the worker spans two
	// hours off: verification must reject the timeline.
	for i := range procs {
		procs[i].Skew = -procs[i].Skew
	}
	err := VerifyStitched(append(append([]StitchedSpan(nil), router...), Stitch(procs)...))
	if err == nil {
		t.Fatal("timeline with flipped offsets passed verification")
	}
	if !strings.Contains(err.Error(), "escapes parent") {
		t.Fatalf("unexpected verification error: %v", err)
	}
}

func TestVerifyStitchedRejectsMissingParentAndBackwardsSpan(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	orphan := []StitchedSpan{
		{Process: "router", Name: "respond", Parent: "request", Start: base, End: base.Add(time.Millisecond)},
	}
	if err := VerifyStitched(orphan); err == nil {
		t.Fatal("orphan span passed verification")
	}
	backwards := []StitchedSpan{
		{Process: "router", Name: "request", Start: base.Add(time.Millisecond), End: base},
	}
	if err := VerifyStitched(backwards); err == nil {
		t.Fatal("backwards span passed verification")
	}
}

func TestVerifyStitchedCrossProcessUncertainty(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	spans := []StitchedSpan{
		{Process: "router", Name: "scatter_gather", Start: base, End: base.Add(10 * time.Millisecond)},
		// Child pokes 100µs past the parent's end — within a 150µs
		// cross-process uncertainty, so it must pass...
		{Process: "shard0 w0", Name: "shard_eval", Parent: "scatter_gather",
			Start: base.Add(time.Millisecond), End: base.Add(10*time.Millisecond + 100*time.Microsecond),
			Uncertainty: 150 * time.Microsecond},
	}
	if err := VerifyStitched(spans); err != nil {
		t.Fatalf("overhang within uncertainty rejected: %v", err)
	}
	// ...and fail once the uncertainty cannot explain the overhang.
	spans[1].Uncertainty = 10 * time.Microsecond
	if err := VerifyStitched(spans); err == nil {
		t.Fatal("overhang beyond uncertainty passed")
	}
	// Same-process nesting is exact: no slack even with uncertainty.
	spans[1].Process = "router"
	spans[1].Uncertainty = 150 * time.Microsecond
	if err := VerifyStitched(spans); err == nil {
		t.Fatal("same-process overhang passed")
	}
}

func TestStitchedEventRoundTrip(t *testing.T) {
	tracer := trace.NewWallTracer(1, 1)
	base := time.Now()
	in := []StitchedSpan{
		{Process: "router", Name: "request", Start: base, End: base.Add(5 * time.Millisecond)},
		{Process: "router", Name: "scatter_gather", Parent: "request",
			Start: base.Add(time.Millisecond), End: base.Add(4 * time.Millisecond)},
		{Process: "shard0 w0", Name: "shard_eval", Parent: "scatter_gather",
			Start: base.Add(2 * time.Millisecond), End: base.Add(3 * time.Millisecond),
			Uncertainty: 80 * time.Microsecond},
	}
	ExportStitched(tracer, "req-1", in)
	tracer.SpanAt("router", "request", base, base.Add(time.Millisecond),
		map[string]any{"request": "req-2"}) // different request: filtered out

	out := StitchedFromEvents(tracer.Trace().Events(), "req-1")
	if len(out) != len(in) {
		t.Fatalf("round trip kept %d of %d spans", len(out), len(in))
	}
	byName := map[string]StitchedSpan{}
	for _, s := range out {
		byName[s.Process+"/"+s.Name] = s
	}
	// Event timestamps are relative to the tracer's epoch, so compare
	// span positions relative to the request root on each side.
	inRoot, outRoot := in[0].Start, byName["router/request"].Start
	for _, want := range in {
		got, ok := byName[want.Process+"/"+want.Name]
		if !ok {
			t.Fatalf("span %s/%s lost in round trip", want.Process, want.Name)
		}
		if got.Parent != want.Parent {
			t.Fatalf("%s parent = %q, want %q", want.Name, got.Parent, want.Parent)
		}
		// Chrome events carry microsecond floats: exact to ~1µs.
		if d := got.Start.Sub(outRoot) - want.Start.Sub(inRoot); d < -2*time.Microsecond || d > 2*time.Microsecond {
			t.Fatalf("%s start drifted %v in round trip", want.Name, d)
		}
		if d := got.End.Sub(outRoot) - want.End.Sub(inRoot); d < -2*time.Microsecond || d > 2*time.Microsecond {
			t.Fatalf("%s end drifted %v in round trip", want.Name, d)
		}
	}
	if err := VerifyStitched(out); err != nil {
		t.Fatalf("round-tripped timeline failed verification: %v", err)
	}
}
