package main

import (
	"flag"
	"fmt"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/report"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
)

// cmdCompile lowers a model through graph.Compile and dumps the result:
// the rewrite statistics, the static memory plan, and optionally the
// HTML slab-timeline report of the full-batch StepMem table, with the
// scratch arena's high water after one full-batch forward as a fact.
// It self-verifies the headline identity — the plotted written high
// water equals the slab size actually mapped — before printing
// anything, so `make compile-smoke` is a real check, not a formatter.
func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	model := fs.String("model", "", "model description file (overrides -arch)")
	arch := fs.String("arch", "vgg19", "built-in architecture")
	widthDiv := fs.Int("widthdiv", 16, "channel width divisor (with -arch)")
	classes := fs.Int("classes", 10, "classifier width (with -arch)")
	inC := fs.Int("inc", 3, "input channels (with -arch)")
	inH := fs.Int("inh", 32, "input height (with -arch)")
	inW := fs.Int("inw", 32, "input width (with -arch)")
	batch := fs.Int("batch", 8, "batch size")
	snap := fs.String("snapshot", "", "weight snapshot to restore before compiling")
	htmlOut := fs.String("o", "", "write the HTML slab-timeline report here")
	showPlan := fs.Bool("plan", false, "print the per-node static memory plan")
	if err := fs.Parse(args); err != nil {
		return err
	}

	name := *arch
	if *model != "" {
		name = *model
	}
	// The inference program over the logits, built exactly as `serve`
	// builds it (a -model file takes precedence over -arch).
	m, store, err := serve.Materialize(serve.Spec{
		Name: name, ModelFile: *model, Arch: *arch, Snapshot: *snap, MaxBatch: *batch,
		Model: models.Config{
			Classes: *classes, InputC: *inC, InputH: *inH, InputW: *inW,
			WidthDiv: *widthDiv, BatchNorm: true,
		},
	})
	if err != nil {
		return err
	}
	prog, err := graph.Compile(m.Graph, store, graph.CompileOptions{})
	if err != nil {
		return err
	}
	// One full-batch forward of zeros: the scratch arena's high water is
	// the one footprint the static plan does not fix.
	if _, err := prog.Forward(graph.Feeds{m.Input.Name: tensor.New(m.Input.Shape...)}); err != nil {
		return err
	}
	st := prog.Stats()

	data, peak, err := report.CompileReport(fmt.Sprintf("%s · compiled plan", m.Name), prog)
	if err != nil {
		return err
	}
	// The acceptance identity: the plotted written high water must be
	// the slab size the program actually mapped.
	if peak != prog.SlabBytes() {
		return fmt.Errorf("compile: plotted peak %d bytes != mapped slab %d bytes", peak, prog.SlabBytes())
	}
	data.Facts = append(data.Facts, report.KV{
		Key: "scratch high water", Value: report.HumanBytes(float64(prog.Arena().Stats().HighWaterBytes)),
	})

	fmt.Printf("model:     %s (batch %d)\n", m.Name, *batch)
	fmt.Printf("program:   %d ops -> %d steps (%d fused, %d elided, %d viewed)\n",
		st.Ops, st.Steps, st.Fused, st.Elided, st.Reshaped)
	fmt.Printf("slab:      %s (no-reuse baseline %s, %.1f%% saved)\n",
		report.HumanBytes(float64(st.SlabBytes)), report.HumanBytes(float64(st.NoReuseBytes)),
		100*(1-float64(st.SlabBytes)/float64(max(st.NoReuseBytes, 1))))
	fmt.Printf("verified:  plotted peak == mapped slab (%d bytes)\n", peak)

	if *showPlan {
		fmt.Printf("\n%-24s %-12s %6s %12s %12s %12s  %s\n",
			"node", "kind", "step", "offset", "bytes", "live", "placement")
		for _, r := range data.Table.Rows {
			fmt.Printf("%-24s %-12s %6s %12s %12s %12s  %s\n",
				r[0], r[1], r[2], r[3], r[4], r[5], r[6])
		}
	}
	if *htmlOut != "" {
		if err := report.WriteFile(*htmlOut, data); err != nil {
			return err
		}
		fmt.Printf("report:    %s\n", *htmlOut)
	}
	return nil
}
