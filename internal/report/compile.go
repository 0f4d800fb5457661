package report

import (
	"fmt"

	"splitcnn/internal/graph"
)

// CompileReport builds the memory-timeline report for a compiled
// program's static plan: slab occupancy over the program's steps, with
// the planned slab size as the dashed high-water rule.
//
// Two series are plotted. "mapped extent" is the highest slab address
// live at each step — its maximum over the program IS the slab size, by
// construction of the first-fit layout, and the returned peak carries
// that identity so callers can cross-check it against
// prog.SlabBytes() with == before writing anything. "live bytes" is
// the sum of live storage sizes, whose gap to the extent line is
// first-fit fragmentation.
func CompileReport(title string, prog *graph.CompiledProgram) (*Data, int64, error) {
	entries := prog.PlanEntries()
	steps := prog.Steps()
	if steps <= 0 {
		return nil, 0, fmt.Errorf("report: compiled program has no steps")
	}

	// One extent per storage (fused and viewed members share one).
	type extent struct {
		off, bytes int64
		start, end int
	}
	seen := map[int]bool{}
	var storages []extent
	stepName := make([]string, steps)
	for _, e := range entries {
		if e.FusedInto == "" && !e.Alias && e.Step >= 0 && e.Step < steps {
			stepName[e.Step] = e.Name
		}
		if e.Storage < 0 || seen[e.Storage] {
			continue
		}
		seen[e.Storage] = true
		storages = append(storages, extent{e.Offset, e.Bytes, e.Start, e.End})
	}

	livePts := make([]Point, 0, steps)
	extentPts := make([]Point, 0, steps)
	var peak int64
	for s := 0; s < steps; s++ {
		var live, ext int64
		for _, st := range storages {
			if st.start <= s && s <= st.end {
				live += st.bytes
				if st.off+st.bytes > ext {
					ext = st.off + st.bytes
				}
			}
		}
		if ext > peak {
			peak = ext
		}
		livePts = append(livePts, Point{X: float64(s), Y: float64(live), Label: stepName[s]})
		extentPts = append(extentPts, Point{X: float64(s), Y: float64(ext), Label: stepName[s]})
	}

	st := prog.Stats()
	d := &Data{
		Title: title,
		Subtitle: fmt.Sprintf("%d ops → %d steps · %d fused · %d elided · %d viewed",
			st.Ops, st.Steps, st.Fused, st.Elided, st.Reshaped),
		Facts: []KV{
			{"slab size", HumanBytes(float64(st.SlabBytes))},
			{"no-reuse baseline", HumanBytes(float64(st.NoReuseBytes))},
			{"reuse saving", fmt.Sprintf("%.1f%%", 100*(1-float64(st.SlabBytes)/float64(max64(st.NoReuseBytes, 1))))},
			{"storages", fmt.Sprint(len(storages))},
		},
		Charts: []Chart{{
			Title: "activation slab",
			Note:  "static first-fit layout over the rewritten program",
			XKind: XSteps,
			Series: []Series{
				{Name: "mapped extent", Points: extentPts},
				{Name: "live bytes", Points: livePts},
			},
			HighWater:      float64(st.SlabBytes),
			HighWaterLabel: "planned slab size",
		}},
	}

	d.Table = &Table{
		Caption: "static memory plan",
		Header:  []string{"node", "kind", "step", "offset", "bytes", "live", "placement"},
	}
	for _, e := range entries {
		placement := "slab"
		switch {
		case e.FusedInto != "":
			placement = "fused into " + e.FusedInto
		case e.Alias:
			placement = "view"
		case e.Storage < 0:
			placement = "external"
		}
		offset, bytes, live := "-", "-", "-"
		if e.Storage >= 0 {
			offset = fmt.Sprint(e.Offset)
			bytes = fmt.Sprint(e.Bytes)
			live = fmt.Sprintf("[%d, %d]", e.Start, e.End)
		}
		d.Table.Rows = append(d.Table.Rows, []string{
			e.Name, e.Kind, fmt.Sprint(e.Step), offset, bytes, live, placement,
		})
	}
	return d, peak, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
