package sim

import (
	"fmt"

	"splitcnn/internal/costmodel"
	"splitcnn/internal/graph"
	"splitcnn/internal/hmms"
)

// Method selects the memory scheduling scheme of §6.2.
type Method int

// Scheduling methods compared in Figure 8.
const (
	// MethodNone is the baseline plan: no offload, best throughput,
	// maximum resident memory.
	MethodNone Method = iota
	// MethodLayerWise is the vDNN-style per-layer offload baseline.
	MethodLayerWise
	// MethodHMMS is the paper's planner (Algorithm 1).
	MethodHMMS
)

// String names the method as the paper does.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "baseline"
	case MethodLayerWise:
		return "layer-wise"
	case MethodHMMS:
		return "hmms"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Plan executes the offline stages of the HMMS pipeline for one graph:
// serialize, assign storage, plan offload/prefetch with the chosen
// method (capped at limit — pass a negative limit to use the program's
// theoretical offload limit), and statically plan memory.
func Plan(g *graph.Graph, dev costmodel.DeviceSpec, m Method, limit float64) (*hmms.Program, *hmms.OffloadPlan, *hmms.MemoryPlan, error) {
	prog, err := hmms.BuildProgram(g, dev)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, mem, err := PlanFromProgram(prog, m, limit)
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, plan, mem, nil
}

// PlanFromProgram is Plan for a program built elsewhere — the entry
// point for measured programs (internal/profile.BuildProgram), which
// drive the identical planner pipeline from real layer timings.
func PlanFromProgram(prog *hmms.Program, m Method, limit float64) (*hmms.OffloadPlan, *hmms.MemoryPlan, error) {
	assign := hmms.AssignStorage(prog, hmms.DefaultStorageOpts())
	if limit < 0 {
		limit = prog.TheoreticalOffloadLimit()
	}
	var plan *hmms.OffloadPlan
	var err error
	switch m {
	case MethodNone:
		plan = hmms.PlanNone()
	case MethodLayerWise:
		plan, err = hmms.PlanLayerWise(prog, assign, limit)
	case MethodHMMS:
		plan, err = hmms.PlanOffload(prog, assign, limit)
	default:
		err = fmt.Errorf("sim: unknown method %d", int(m))
	}
	if err != nil {
		return nil, nil, err
	}
	return plan, hmms.PlanMemory(prog, assign, plan, hmms.FirstFit), nil
}

// PlanAndRun executes the whole HMMS pipeline for one graph — Plan
// followed by the analytic step simulation.
func PlanAndRun(g *graph.Graph, dev costmodel.DeviceSpec, m Method, limit float64) (*Result, *hmms.Program, *hmms.MemoryPlan, error) {
	prog, plan, mem, err := Plan(g, dev, m, limit)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := Run(prog, plan, mem)
	if err != nil {
		return nil, nil, nil, err
	}
	return res, prog, mem, nil
}
