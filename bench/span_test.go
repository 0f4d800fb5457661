package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	u := time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * u},
		{Name: "a", Parent: 0, Start: 10 * u, End: 30 * u},
		{Name: "b", Parent: 0, Start: 20 * u, End: 50 * u}, // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 60 * u, End: 70 * u},
		{Name: "a.inner", Parent: 1, Start: 12 * u, End: 17 * u}, // a grandchild takes nothing from op
		{Name: "d", Parent: 0, Start: 95 * u, End: 120 * u},      // clipped to the parent
	}
	self := selfTimes(spans)
	// op: 100 − ([10,50) ∪ [60,70) ∪ [95,100)) = 100 − 55.
	for i, want := range []time.Duration{45 * u, 15 * u, 30 * u, 10 * u, 5 * u, 25 * u} {
		if self[i] != want {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	dur, selfMs := spanStats(spans, 1)
	if _, ok := dur["op"]; ok {
		t.Error("spanStats(from=1) included span 0")
	}
	if got := selfMs["a"]; len(got) != 1 || got[0] != 15 {
		t.Errorf("self ms of a = %v, want [15]", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.start("x", -1, 0, 0)
	r.end(id)
	r.add("y", id, 0, 0, time.Now(), time.Now())
	if id != -1 || r.snapshot() != nil {
		t.Error("nil recorder recorded something")
	}
}

func TestRecorderParentsAndChromeDump(t *testing.T) {
	r := newRecorder()
	op := r.start("plan.op", -1, 7, 0)
	child := r.start("core.split", op, 7, 0)
	r.end(child)
	r.end(op)
	open := r.start("never.ended", -1, 8, 1)
	spans := r.snapshot()
	if len(spans) != 3 || spans[child].Parent != op || spans[child].Op != 7 {
		t.Fatalf("spans: %+v", spans)
	}
	if s := spans[open]; s.End != s.Start {
		t.Errorf("unfinished span not closed at zero length: %+v", s)
	}
	if spans[op].Start > spans[child].Start || spans[child].End > spans[op].End {
		t.Errorf("child not inside parent: %+v", spans)
	}

	path := filepath.Join(t.TempDir(), "sub", "x.trace.json")
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array of events: %v", err)
	}
	if len(events) != 3 || events[1]["ph"] != "X" || events[1]["name"] != "core.split" || events[1]["cat"] != "core" {
		t.Errorf("events: %v", events)
	}
	if args := events[1]["args"].(map[string]any); args["parent"] != float64(op) || args["op"] != float64(7) {
		t.Errorf("args: %v", args)
	}
}
