package experiments

import (
	"fmt"

	"splitcnn/internal/core"
	"splitcnn/internal/models"
	"splitcnn/internal/sim"
)

func init() {
	registry["fig8"] = func(o Options) error { _, err := Fig8(o); return err }
	registry["fig9"] = func(o Options) error { _, err := Fig9(o); return err }
	registry["fig10"] = func(o Options) error { _, err := Fig10(o); return err }
}

// Fig8Row is one bar of Figure 8.
type Fig8Row struct {
	Network     string
	Method      sim.Method
	Throughput  float64 // images/s
	Degradation float64 // vs the baseline plan
	Offloaded   int64
}

// Fig8 reproduces Figure 8: training throughput of VGG-19 and ResNet-50
// (batch 64) under the baseline, layer-wise (vDNN-style) and HMMS
// memory plans, each capped at the network's theoretical offload limit
// (100% for VGG-19, ~40% for ResNet-50 in the paper).
func Fig8(opt Options) ([]Fig8Row, error) {
	opt.fill()
	const batch = 64
	var rows []Fig8Row
	opt.printf("Figure 8: training throughput under three scheduling methods (batch %d, %s)\n", batch, opt.Device.Name)
	opt.printf("%-10s %-11s %12s %12s %12s\n", "network", "method", "img/s", "degr(%)", "offl(GB)")
	for _, mk := range []struct {
		name string
		m    *models.Model
	}{
		{"vgg19", models.VGG19ImageNet(batch)},
		{"resnet50", models.ResNet50ImageNet(batch)},
	} {
		var base float64
		for _, method := range []sim.Method{sim.MethodNone, sim.MethodLayerWise, sim.MethodHMMS} {
			res, _, mem, err := sim.PlanAndRun(mk.m.Graph, opt.Device, method, -1)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s %s: %w", mk.name, method, err)
			}
			if err := opt.exportTrace(fmt.Sprintf("fig8-%s-%s", mk.name, method), res, mem); err != nil {
				return nil, err
			}
			thr := res.Throughput(batch)
			if method == sim.MethodNone {
				base = thr
			}
			row := Fig8Row{
				Network: mk.name, Method: method, Throughput: thr,
				Degradation: 1 - thr/base, Offloaded: res.OffloadedBytes,
			}
			rows = append(rows, row)
			opt.printf("%-10s %-11s %12.1f %12.1f %12.2f\n",
				mk.name, method, thr, row.Degradation*100, float64(res.OffloadedBytes)/1e9)
		}
	}
	return rows, nil
}

// Fig9Row summarizes one scheduler's stream timeline.
type Fig9Row struct {
	Method sim.Method
	// Spans is the full nvprof-style timeline (compute + copies).
	Spans []sim.Span
	// ComputeBusy and LinkBusy are stream utilizations over the step.
	ComputeBusy, LinkBusy float64
	Stall                 float64
}

// Fig9 reproduces Figure 9: the profiling timelines of the three
// offload-scheduling methods on the VGG-19 training step. Rather than
// pixels, it reports per-stream occupancy and prints a coarse ASCII
// rendering of the first milliseconds of each timeline, where the
// layer-wise scheduler's eager synchronization stalls are visible.
func Fig9(opt Options) ([]Fig9Row, error) {
	opt.fill()
	const batch = 64
	m := models.VGG19ImageNet(batch)
	var rows []Fig9Row
	opt.printf("Figure 9: stream timelines for VGG-19 (batch %d)\n", batch)
	for _, method := range []sim.Method{sim.MethodNone, sim.MethodLayerWise, sim.MethodHMMS} {
		res, _, mem, err := sim.PlanAndRun(m.Graph, opt.Device, method, -1)
		if err != nil {
			return nil, err
		}
		if err := opt.exportTrace(fmt.Sprintf("fig9-vgg19-%s", method), res, mem); err != nil {
			return nil, err
		}
		var computeBusy, linkBusy float64
		for _, s := range res.Spans {
			d := s.End - s.Start
			if s.Stream == "compute" {
				computeBusy += d
			} else {
				linkBusy += d
			}
		}
		row := Fig9Row{
			Method: method, Spans: res.Spans,
			ComputeBusy: computeBusy / res.TotalTime,
			LinkBusy:    linkBusy / res.TotalTime,
			Stall:       res.StallTime,
		}
		rows = append(rows, row)
		opt.printf("\n[%s] total=%.1fms stall=%.1fms compute-busy=%.0f%% link-busy=%.0f%%\n",
			method, res.TotalTime*1e3, res.StallTime*1e3, row.ComputeBusy*100, row.LinkBusy*100)
		opt.printf("%s\n", asciiTimeline(res.Spans, res.TotalTime, 100))
	}
	return rows, nil
}

// asciiTimeline renders stream occupancy as rows of width cells.
func asciiTimeline(spans []sim.Span, total float64, width int) string {
	lanes := map[string][]byte{}
	for _, name := range []string{"compute", "offload", "prefetch"} {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		lanes[name] = row
	}
	for _, s := range spans {
		row, ok := lanes[s.Stream]
		if !ok {
			continue
		}
		lo := int(s.Start / total * float64(width))
		hi := int(s.End / total * float64(width))
		for i := lo; i <= hi && i < width; i++ {
			row[i] = '#'
		}
	}
	return "  compute  |" + string(lanes["compute"]) + "|\n" +
		"  offload  |" + string(lanes["offload"]) + "|\n" +
		"  prefetch |" + string(lanes["prefetch"]) + "|"
}

// Fig10Row is one network's Figure 10 comparison.
type Fig10Row struct {
	Network string
	// BaselineBatch / SplitBatch are the maximum trainable batch sizes
	// under the device memory capacity.
	BaselineBatch, SplitBatch int
	BatchRatio                float64
	// ThroughputLoss is the relative throughput cost of Split+HMMS at
	// its maximum batch versus the baseline at its own maximum batch.
	ThroughputLoss float64
}

// Fig10 reproduces Figure 10: the maximum trainable batch size and the
// accompanying throughput for the baseline versus Split-CNN (4 patches,
// depth ≈ 75%) + HMMS, on VGG-19 and the memory-efficient ResNet-18
// (BN recompute per [6], which raises its offloadable fraction — §6.3).
func Fig10(opt Options) ([]Fig10Row, error) {
	opt.fill()
	capacity := opt.Device.MemCapacity
	split := core.Config{Depth: 0.75, NH: 2, NW: 2}
	builders := []struct {
		name  string
		build func(batch int) *models.Model
	}{
		{"vgg19", models.VGG19ImageNet},
		{"resnet18-me", func(b int) *models.Model {
			return models.ResNet18(models.Config{
				BatchSize: b, Classes: 1000, InputC: 3, InputH: 224, InputW: 224, BNRecompute: true,
			})
		}},
	}
	var rows []Fig10Row
	opt.printf("Figure 10: maximum batch size and throughput (splits=4, depth≈75%%, %.0f GB device)\n",
		float64(capacity)/(1<<30))
	opt.printf("%-12s %14s %14s %8s %10s\n", "network", "baseline-batch", "split-batch", "ratio", "thr-loss(%)")
	for _, b := range builders {
		evalOne := func(doSplit bool, batch int) (int64, float64, error) {
			g := b.build(batch).Graph
			method := sim.MethodNone
			if doSplit {
				sr, err := core.Split(g, split)
				if err != nil {
					return 0, 0, err
				}
				g = sr.Graph
				method = sim.MethodHMMS
			}
			res, _, mem, err := sim.PlanAndRun(g, opt.Device, method, -1)
			if err != nil {
				return 0, 0, err
			}
			return mem.DeviceBytes(), res.Throughput(batch), nil
		}
		// search returns the largest batch that fits and its throughput.
		search := func(doSplit bool) (int, float64, error) {
			batch, err := sim.MaxBatch(capacity, 8192, func(n int) (int64, error) {
				bytes, _, err := evalOne(doSplit, n)
				return bytes, err
			})
			if err != nil {
				return 0, 0, fmt.Errorf("fig10 %s: %w", b.name, err)
			}
			_, throughput, err := evalOne(doSplit, batch)
			return batch, throughput, err
		}
		b0, t0, err := search(false)
		if err != nil {
			return nil, err
		}
		b1, t1, err := search(true)
		if err != nil {
			return nil, err
		}
		row := Fig10Row{
			Network: b.name, BaselineBatch: b0, SplitBatch: b1,
			BatchRatio: float64(b1) / float64(b0), ThroughputLoss: 1 - t1/t0,
		}
		rows = append(rows, row)
		opt.printf("%-12s %14d %14d %8.1f %10.1f\n",
			b.name, b0, b1, row.BatchRatio, row.ThroughputLoss*100)
	}
	return rows, nil
}
