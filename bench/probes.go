package main

import (
	"math/rand"
	"runtime"
	"time"

	"splitcnn/internal/autotune"
	"splitcnn/internal/graph"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// Probes replay one layer's public calls on the shapes a workload's graph
// actually contains, outside the workload's loop, so a layer's time is
// measured where only that layer runs. Each takes a time budget.

// probeSpans caps how many iterations of one probe are also recorded as
// spans: enough to find the layer in the trace without burying it under a
// tight loop's iterations.
const probeSpans = 32

// probe calls f until budget is spent (at least minIters times) and
// returns the median call time in ms.
func probe(rec *recorder, name string, parent int, budget time.Duration, minIters int, f func()) float64 {
	n := 0
	return median(timeLoop(budget, minIters, func() {
		id := -1
		if n < probeSpans {
			id = rec.start(name, parent, -1, 0)
		}
		f()
		if id >= 0 {
			rec.end(id)
		}
		n++
	}))
}

// convSite is one distinct convolution geometry of a graph and how many
// nodes share it: per-site times are weighted by count, so their sum is
// comparable to one forward pass of the whole graph.
type convSite struct {
	autotune.Site
	count   int
	hasBias bool
}

func convSites(g *graph.Graph) []convSite {
	counts := map[autotune.Key]int{}
	bias := map[autotune.Key]bool{}
	for _, n := range g.OpNodes() {
		c, ok := n.Op.(*nn.Conv)
		if !ok || len(n.Inputs) == 0 {
			continue
		}
		k := autotune.KeyOf(c.Params, n.Inputs[0].Shape, n.Shape.C())
		counts[k]++
		bias[k] = c.HasBias
	}
	var out []convSite
	for _, s := range autotune.Sites(g) {
		out = append(out, convSite{s, counts[s.Key()], bias[s.Key()]})
	}
	return out
}

func randTensor(rng *rand.Rand, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

// convReport sums the per-site medians (ms), each weighted by how many
// nodes of the graph have that geometry.
type convReport struct {
	fwdMs, dispatchMs, bwdMs float64
	gemmMs, im2colMs         float64
	flops, bytes             int64 // one forward pass over all conv nodes
	gemmFlops, im2colBytes   int64
}

// probeConvs times, per site: tensor.Conv2DInto (the im2col+GEMM kernel),
// nn.Conv.ForwardInto (the same call through the dispatch heuristic the
// executors use), the GEMM and im2col inside it on their own, and — for
// training graphs — tensor.Conv2DBackwardArena.
func probeConvs(sites []convSite, budget time.Duration, backward bool, seed int64) convReport {
	var r convReport
	if len(sites) == 0 {
		return r
	}
	rng := stream(seed, streamProbe)
	arena := tensor.NewArena()
	kernels := 4
	if backward {
		kernels = 5
	}
	slice := budget / time.Duration(len(sites)*kernels)
	for _, s := range sites {
		p, in := s.Params, s.In
		oh, ow := p.OutSize(in.H(), in.W())
		n, cin := in.N(), in.C()
		x := randTensor(rng, n, cin, in.H(), in.W())
		w := randTensor(rng, s.Cout, cin, p.KH, p.KW)
		var b *tensor.Tensor
		ins := []*tensor.Tensor{x, w}
		if s.hasBias {
			b = randTensor(rng, s.Cout)
			ins = append(ins, b)
		}
		dst := tensor.New(n, s.Cout, oh, ow)
		op := &nn.Conv{Params: p, HasBias: s.hasBias}
		cnt := float64(s.count)

		r.fwdMs += cnt * median(timeLoop(slice, 3, func() { tensor.Conv2DInto(arena, dst, x, w, b, p) }))
		r.dispatchMs += cnt * median(timeLoop(slice, 3, func() { op.ForwardInto(arena, dst, ins) }))

		k, cols := cin*p.KH*p.KW, n*oh*ow
		wm, col, prod := randTensor(rng, s.Cout, k), randTensor(rng, k, cols), tensor.New(s.Cout, cols)
		r.gemmMs += cnt * median(timeLoop(slice, 3, func() { tensor.MatMul(prod, wm, col) }))
		r.im2colMs += cnt * median(timeLoop(slice, 3, func() { arena.Put(tensor.Im2ColArena(arena, x, p)) }))

		if backward {
			gradOut := randTensor(rng, n, s.Cout, oh, ow)
			gradW := tensor.New(s.Cout, cin, p.KH, p.KW)
			var gradB *tensor.Tensor
			if s.hasBias {
				gradB = tensor.New(s.Cout)
			}
			r.bwdMs += cnt * median(timeLoop(slice, 3, func() {
				arena.Put(tensor.Conv2DBackwardArena(arena, x, w, gradOut, p, gradW, gradB, true))
			}))
		}

		flops := op.FLOPs([]tensor.Shape{in}, dst.Shape())
		r.flops += int64(s.count) * flops
		r.bytes += int64(s.count) * (x.Bytes() + w.Bytes() + dst.Bytes())
		r.gemmFlops += int64(s.count) * 2 * int64(s.Cout) * int64(k) * int64(cols)
		r.im2colBytes += int64(s.count) * col.Bytes()
	}
	return r
}

// rate is work per second scaled by unit (1e9 for G…/s); 0 when no time
// was measured.
func rate(work int64, millis, unit float64) float64 {
	if millis <= 0 {
		return 0
	}
	return float64(work) / (millis / 1e3) / unit
}

// into writes the tensor.* and nn.* conv metrics. Backward FLOPs are
// taken as twice the forward count (one GEMM each for the input and the
// weight gradient); bytes are computed from tensor sizes, not measured.
func (r convReport) into(v map[string]float64) {
	v["tensor.conv_fwd_ms"] = r.fwdMs
	v["tensor.conv_fwd_gflops"] = rate(r.flops, r.fwdMs, 1e9)
	v["tensor.conv_bwd_ms"] = r.bwdMs
	v["tensor.conv_bwd_gflops"] = rate(2*r.flops, r.bwdMs, 1e9)
	v["tensor.conv_flops"] = float64(r.flops)
	v["tensor.conv_bytes"] = float64(r.bytes)
	v["tensor.gemm_gflops"] = rate(r.gemmFlops, r.gemmMs, 1e9)
	v["tensor.im2col_gbs"] = rate(r.im2colBytes, r.im2colMs, 1e9)
	v["nn.conv_dispatch_ms"] = r.dispatchMs
}

// forwardProbe times Executor.Forward on an arena executor and reports
// the median (ms), heap bytes allocated per call, and the arena's
// counters afterwards.
func forwardProbe(ex *graph.Executor, feeds graph.Feeds, budget time.Duration) (medMs, allocPerCall float64, arena tensor.ArenaStats, err error) {
	if _, err = ex.Forward(feeds); err != nil { // warm the arena
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples := timeLoop(budget, 5, func() {
		if _, e := ex.Forward(feeds); e != nil {
			err = e
		}
	})
	runtime.ReadMemStats(&after)
	return median(samples), float64(after.TotalAlloc-before.TotalAlloc) / float64(len(samples)), ex.Arena().Stats(), err
}
