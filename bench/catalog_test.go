package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifestJSON renders BENCHMARK.json from the catalogue, so the file at
// the repository root is generated, not typed.
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		m.EndToEnd = append(m.EndToEnd, metric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	js, err := json.MarshalIndent(m, "", "  ")
	return append(js, '\n'), err
}

// BENCHMARK.json at the repository root must be what the catalogue
// renders to, so the file and the runner cannot drift apart;
// `go test -run BenchmarkJSON -update` rewrites it.
func TestBenchmarkJSONIsTheManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with `cd bench && go test -run BenchmarkJSON -update`")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(want))
	}
}

// The catalogue must stay inside the limits the benchmark contract sets.
func TestCatalogueMeetsTheContract(t *testing.T) {
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end / %d per-layer metrics exceed the contract's 16 / 128", len(endToEnd), len(perLayer))
	}
	// The driver makes 4 + 22 runs per workload, inside 3420 s with two
	// builds; leave the builds and each run's set-up a quarter of it.
	if runs := 4 + 22*len(workloads); float64(runs*runSeconds) > 3420*0.75 {
		t.Errorf("%d runs of %d s leave too little of 3420 s for builds and set-up", runs, runSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		unique(w.name)
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		unique(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if m := endToEnd[0]; m.name != "setup_s" || m.unit != "s" || m.better != "lower" {
		t.Errorf("setup_s (s, lower) is mandatory; first end-to-end metric is %+v", m)
	}
	for _, name := range exactPerLayer {
		if !seen[name] {
			t.Errorf("exact metric %q is not in the catalogue", name)
		}
	}
}
