package main

import (
	"fmt"
	"math"
	"time"

	"splitcnn/internal/core"
	"splitcnn/internal/costmodel"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
	"splitcnn/internal/sim"
)

// plan_imagenet: the paper's own deliverable. One op builds a full-size
// ImageNet network, optionally rewrites it with core.Split, plans it with
// HMMS and simulates the planned step twice (analytic sim.Run and the
// discrete-event sim.Replay). No tensor arithmetic runs.

type splitMode int

const (
	unsplit splitMode = iota
	splitDeterministic
	splitStochastic
)

type planConfig struct {
	name  string
	batch int
	build func(batch int) *models.Model
	mode  splitMode
}

// planConfigs is {VGG-19 b64, ResNet-18 b64, ResNet-50 b32} × {unsplit,
// 2×2 split of the first 75 % of convs, the same with stochastic ω=0.2
// boundaries}: Figs 8–10's networks at the paper's batch sizes.
func planConfigs() []planConfig {
	nets := []struct {
		name  string
		batch int
		build func(int) *models.Model
	}{
		{"vgg19", 64, models.VGG19ImageNet},
		{"resnet18", 64, models.ResNet18ImageNet},
		{"resnet50", 32, models.ResNet50ImageNet},
	}
	var out []planConfig
	for _, n := range nets {
		for mode, tag := range []string{"unsplit", "split", "stochastic"} {
			out = append(out, planConfig{fmt.Sprintf("%s/b%d/%s", n.name, n.batch, tag), n.batch, n.build, splitMode(mode)})
		}
	}
	return out
}

// planRef is the config the per-layer timings are taken on: the largest
// graph of the set, so every stage has something to do.
const planRef = "resnet50/b32/split"

// planOut is what one op produced; fingerprint() is the part that must
// repeat exactly for the same config and seed.
type planOut struct {
	nodes         int
	assign        *hmms.Assignment
	plan          *hmms.OffloadPlan
	mem           *hmms.MemoryPlan
	res           *sim.Result
	replayTotal   float64
	imgPerS       float64
	realizedDepth float64
}

type planFingerprint struct {
	nodes                     int
	deviceBytes, hostBytes    int64
	offloaded                 int64
	total, stall, replayTotal float64
}

func (o planOut) fingerprint() planFingerprint {
	return planFingerprint{o.nodes, o.mem.DeviceBytes(), o.mem.PoolBytes[hmms.PoolHost],
		o.res.OffloadedBytes, o.res.TotalTime, o.res.StallTime, o.replayTotal}
}

type planSession struct {
	in      inputs
	dev     costmodel.DeviceSpec
	configs []planConfig
	order   []int
	first   []*planFingerprint
}

func openPlan(in inputs) (session, error) {
	cfgs := planConfigs()
	return &planSession{
		in: in, dev: costmodel.P100(), configs: cfgs,
		order: rotation(in.seed, len(cfgs), 64),
		first: make([]*planFingerprint, len(cfgs)),
	}, nil
}

// setup is the warm-up pass: one op per config. The planner keeps no
// state between ops, so this is all the set-up there is.
func (s *planSession) setup() error {
	for ci := range s.configs {
		if _, err := s.op(ci, -1, nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *planSession) teardown() {}

// op runs the pipeline for config ci. With tracing off it enters through
// sim.Plan, the library's own pipeline (sim.PlanAndRun is sim.Plan +
// sim.Run; Plan is called directly because Replay needs the offload plan
// PlanAndRun does not return). With a recorder it calls the four stages
// sim.Plan is made of, each under its own span.
func (s *planSession) op(ci, opID int, rec *recorder) (planOut, error) {
	c := s.configs[ci]
	var out planOut
	root := rec.start("plan.op", -1, opID, 0)
	defer rec.end(root)

	id := rec.start("models.build", root, opID, 0)
	m := c.build(c.batch)
	rec.end(id)
	g := m.Graph
	if c.mode != unsplit {
		cfg := core.Config{Depth: 0.75, NH: 2, NW: 2}
		if c.mode == splitStochastic {
			// Reseeded per op, so a config repeats exactly.
			cfg.Stochastic, cfg.Omega, cfg.Rng = true, 0.2, stream(s.in.seed, streamSplit+ci)
		}
		id = rec.start("core.split", root, opID, 0)
		sr, err := core.Split(g, cfg)
		rec.end(id)
		if err != nil {
			return out, err
		}
		g, out.realizedDepth = sr.Graph, sr.RealizedDepth()
	}
	out.nodes = len(g.Nodes)

	var prog *hmms.Program
	var err error
	if rec == nil {
		prog, out.plan, out.mem, err = sim.Plan(g, s.dev, sim.MethodHMMS, -1)
		if err != nil {
			return out, err
		}
	} else {
		id = rec.start("hmms.build_program", root, opID, 0)
		prog, err = hmms.BuildProgram(g, s.dev)
		rec.end(id)
		if err != nil {
			return out, err
		}
		id = rec.start("hmms.assign_storage", root, opID, 0)
		out.assign = hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
		rec.end(id)
		id = rec.start("hmms.plan_offload", root, opID, 0)
		out.plan, err = hmms.PlanOffload(prog, out.assign, prog.TheoreticalOffloadLimit())
		rec.end(id)
		if err != nil {
			return out, err
		}
		id = rec.start("hmms.plan_memory", root, opID, 0)
		out.mem = hmms.PlanMemory(prog, out.assign, out.plan, hmms.FirstFit)
		rec.end(id)
	}
	id = rec.start("sim.run", root, opID, 0)
	out.res, err = sim.Run(prog, out.plan, out.mem)
	rec.end(id)
	if err != nil {
		return out, err
	}
	id = rec.start("sim.replay", root, opID, 0)
	tr, err := sim.Replay(prog, out.plan, out.mem, s.dev.MemCapacity)
	rec.end(id)
	if err != nil {
		return out, err
	}
	out.replayTotal = tr.Total
	out.imgPerS = out.res.Throughput(c.batch)
	return out, nil
}

// check is the output check of one op: the plan's invariants, and
// identical numbers on every repeat of the config.
func (s *planSession) check(ci int, o planOut) error {
	for _, pool := range []hmms.Pool{hmms.PoolHost, hmms.PoolDeviceParam, hmms.PoolDeviceGeneral} {
		if have, live := o.mem.PoolBytes[pool], o.mem.MaxLiveBytes(pool); have < live {
			return fmt.Errorf("%s: pool %s planned %d B < %d B live", s.configs[ci].name, pool, have, live)
		}
	}
	if o.res.TotalTime < o.res.ComputeTime || o.replayTotal < o.res.ComputeTime {
		return fmt.Errorf("%s: simulated step %.6fs / replay %.6fs shorter than its compute time %.6fs",
			s.configs[ci].name, o.res.TotalTime, o.replayTotal, o.res.ComputeTime)
	}
	fp := o.fingerprint()
	if s.first[ci] == nil {
		s.first[ci] = &fp
	} else if *s.first[ci] != fp {
		return fmt.Errorf("%s: repeat differs: %+v then %+v", s.configs[ci].name, *s.first[ci], fp)
	}
	return nil
}

func (s *planSession) do(rec *recorder, fail *error) doFunc {
	return func(_, i int) outcome {
		ci := s.order[i%len(s.order)]
		o, err := s.op(ci, i, rec)
		if err == nil {
			err = s.check(ci, o)
		}
		if err != nil {
			*fail = err
			return opFailed
		}
		return opOK
	}
}

func (s *planSession) measure(d time.Duration) (opStats, error) {
	var fail error
	st := closedLoop(limit{d: d}, 1, 0, s.do(nil, &fail))
	return st, fail
}

func (s *planSession) layers(d time.Duration, rec *recorder) (map[string]float64, opStats, error) {
	v := map[string]float64{}
	var fail error

	// Every config once, staged under spans, against the library's own
	// one-call pipeline: the staged results must be PlanAndRun's.
	var deviceBytes int64
	logImg := 0.0
	ref := -1
	for ci, c := range s.configs {
		o, err := s.op(ci, -1, rec)
		if err != nil {
			return nil, opStats{}, err
		}
		if err := s.check(ci, o); err != nil {
			fail = err
		}
		whole, err := s.op(ci, -1, nil)
		if err != nil {
			return nil, opStats{}, err
		}
		if whole.fingerprint() != o.fingerprint() {
			fail = fmt.Errorf("%s: staged pipeline %+v != sim.Plan %+v", c.name, o.fingerprint(), whole.fingerprint())
		}
		deviceBytes += o.mem.DeviceBytes()
		logImg += math.Log(o.imgPerS)
		if c.name == planRef {
			ref = ci
			v["hmms.offload_fraction"] = o.plan.Fraction()
			v["hmms.fragmentation_device_general"] = o.mem.Fragmentation(hmms.PoolDeviceGeneral)
			v["hmms.tso_count"] = float64(len(o.assign.TSOs))
			v["core.split_nodes"] = float64(o.nodes)
			v["core.realized_depth"] = o.realizedDepth
			v["sim.stall_seconds"] = o.res.StallTime
			v["sim.degradation"] = o.res.Degradation()
		}
	}
	v["sim.planned_device_gib"] = float64(deviceBytes) / (1 << 30)
	v["sim.img_per_s"] = math.Exp(logImg / float64(len(s.configs)))

	// The workload itself, untraced and traced in turn, two rotations a
	// segment: the difference is what the spans cost.
	plain, traced := alternate(d/2, rec, func(_, from int, rec *recorder) opStats {
		return closedLoop(limit{ops: 2 * len(s.configs)}, 1, from, s.do(rec, &fail))
	})
	v["bench.traced_ops_s"] = traced.throughput()
	v["bench.trace_overhead_pct"] = overheadPct(plain, traced, false)

	// Per-stage times on the reference config alone: the rotation mixes
	// nine graph sizes, whose medians would say nothing about a stage.
	mark := rec.len()
	i := 0
	timeLoop(d*7/20, 5, func() {
		if _, err := s.op(ref, 1_000_000+i, rec); err != nil {
			fail = err
		}
		i++
	})
	dur, _ := spanStats(rec.snapshot(), mark)
	for metric, spanName := range map[string]string{
		"models.build_ms":        "models.build",
		"core.split_ms":          "core.split",
		"hmms.build_program_ms":  "hmms.build_program",
		"hmms.assign_storage_ms": "hmms.assign_storage",
		"hmms.plan_offload_ms":   "hmms.plan_offload",
		"hmms.plan_memory_ms":    "hmms.plan_memory",
		"sim.run_ms":             "sim.run",
		"sim.replay_ms":          "sim.replay",
	} {
		v[metric] = median(dur[spanName])
	}
	plain.add(traced)
	return v, plain, fail
}
