package report

import (
	"fmt"

	"splitcnn/internal/graph"
)

// CompileReport builds the memory-timeline report for a compiled
// program's static plan: the full-batch StepMem table over the
// program's steps, with the planned slab size as the dashed high-water
// rule, and the per-node plan table.
//
// Three series are plotted: "live bytes" (the storage windows whose
// lifetime covers the step), "referenced bytes" (the slab bytes the
// step's kernel call touches) and "written bytes" (the high-water
// extent written so far). Every storage is written by the step that births it, so the
// written line ends at the slab size by construction of the first-fit
// layout; the returned peak is that end, so callers can cross-check it
// against prog.SlabBytes() with == before writing anything.
func CompileReport(title string, prog *graph.CompiledProgram) (*Data, int64, error) {
	rows := prog.StepMem(prog.Batch())
	if len(rows) == 0 {
		return nil, 0, fmt.Errorf("report: compiled program has no steps")
	}
	var livePts, refPts, writtenPts []Point
	for i, r := range rows {
		x := float64(i)
		livePts = append(livePts, Point{X: x, Y: float64(r.LiveBytes), Label: r.Name})
		refPts = append(refPts, Point{X: x, Y: float64(r.RefBytes), Label: r.Name})
		writtenPts = append(writtenPts, Point{X: x, Y: float64(r.WrittenBytes), Label: r.Name})
	}
	entries := prog.PlanEntries()
	storages := map[int]bool{}
	for _, e := range entries {
		if e.Storage >= 0 {
			storages[e.Storage] = true
		}
	}

	st := prog.Stats()
	d := &Data{
		Title: title,
		Subtitle: fmt.Sprintf("%d ops → %d steps · %d fused · %d elided · %d viewed",
			st.Ops, st.Steps, st.Fused, st.Elided, st.Reshaped),
		Facts: []KV{
			{"slab size", HumanBytes(float64(st.SlabBytes))},
			{"no-reuse baseline", HumanBytes(float64(st.NoReuseBytes))},
			{"reuse saving", fmt.Sprintf("%.1f%%", 100*(1-float64(st.SlabBytes)/float64(max(st.NoReuseBytes, 1))))},
			{"storages", fmt.Sprint(len(storages))},
		},
		Charts: []Chart{{
			Title: "activation slab",
			Note:  "static first-fit layout over the rewritten program, full batch",
			XKind: XSteps,
			Series: []Series{
				{Name: "live bytes", Points: livePts},
				{Name: "referenced bytes", Points: refPts},
				{Name: "written bytes", Points: writtenPts},
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
	return d, rows[len(rows)-1].WrittenBytes, nil
}
