package report

import (
	"fmt"

	"splitcnn/internal/memobs"
)

// MeasuredMemReport builds the referenced-vs-planned memory overlay for
// a compiled program's MemTimeline: per op step, the slab bytes the
// kernel call references against the static plan's live bytes, with the
// planned slab size as the dashed high-water rule and the scratch
// arena's measured high water as a fact.
//
// The builder is self-verifying in the CompileReport tradition: it
// refuses to render a timeline that fails Verify (corrupted step
// indices or a sample above its own recorded high water), and it
// returns the plotted measured peak so the caller can cross-check it
// with == against the mem.measured_high_water_bytes gauge before
// writing anything. A report page that disagrees with the metrics
// surface is worse than no page.
func MeasuredMemReport(title string, tl *memobs.MemTimeline) (*Data, int64, error) {
	if err := tl.Verify(); err != nil {
		return nil, 0, err
	}
	if len(tl.Samples) == 0 {
		return nil, 0, fmt.Errorf("report: measured timeline has no samples (no completed pass)")
	}

	measuredPts := make([]Point, 0, len(tl.Samples))
	plannedPts := make([]Point, 0, len(tl.Samples))
	var peak int64
	for _, s := range tl.Samples {
		if s.MeasuredBytes > peak {
			peak = s.MeasuredBytes
		}
		measuredPts = append(measuredPts, Point{X: float64(s.Step), Y: float64(s.MeasuredBytes), Label: s.Name})
		plannedPts = append(plannedPts, Point{X: float64(s.Step), Y: float64(s.PlannedBytes), Label: s.Name})
	}

	driftMax, driftAt := tl.DriftMax()
	facts := []KV{
		{"measured peak", HumanBytes(float64(peak))},
		{"scratch high water", HumanBytes(float64(tl.ScratchHighWater))},
	}
	chart := Chart{
		Title: "referenced vs planned activation bytes",
		Note:  "slab bytes each step's kernel references against the static first-fit plan",
		XKind: XSteps,
		Series: []Series{
			{Name: "measured", Points: measuredPts},
			{Name: "planned live", Points: plannedPts},
		},
	}
	subtitle := fmt.Sprintf("%d steps · no static plan", len(tl.Samples))
	if tl.PlannedSlabBytes > 0 {
		if err := tl.CheckAgainstPlan(); err != nil {
			return nil, 0, err
		}
		chart.HighWater = float64(tl.PlannedSlabBytes)
		chart.HighWaterLabel = "planned slab size"
		facts = append(facts,
			KV{"planned slab", HumanBytes(float64(tl.PlannedSlabBytes))},
			KV{"drift max", fmt.Sprintf("%.3f at %s", driftMax, driftAt)},
			KV{"drift geomean", fmt.Sprintf("%.3f", tl.DriftGeomean())},
		)
		subtitle = fmt.Sprintf("%d steps · drift max %.3f at %s",
			len(tl.Samples), driftMax, driftAt)
	}

	d := &Data{
		Title:    title,
		Subtitle: subtitle,
		Facts:    facts,
		Charts:   []Chart{chart},
	}
	d.Table = &Table{
		Caption: "memory timeline",
		Header:  []string{"step", "op", "kind", "measured", "planned", "written", "drift"},
	}
	for _, s := range tl.Samples {
		drift := "-"
		if s.PlannedBytes > 0 {
			drift = fmt.Sprintf("%.3f", float64(s.MeasuredBytes)/float64(s.PlannedBytes))
		}
		d.Table.Rows = append(d.Table.Rows, []string{
			fmt.Sprint(s.Step), s.Name, s.Kind,
			fmt.Sprint(s.MeasuredBytes), fmt.Sprint(s.PlannedBytes),
			fmt.Sprint(s.WrittenBytes), drift,
		})
	}
	return d, peak, nil
}
