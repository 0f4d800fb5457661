package hmms_test

import (
	"testing"

	"splitcnn/internal/costmodel"
	"splitcnn/internal/hmms"
	"splitcnn/internal/models"
)

func buildVGG(t *testing.T, batch int) (*hmms.Program, *hmms.Assignment) {
	t.Helper()
	m := models.VGG19ImageNet(batch)
	p, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	return p, hmms.AssignStorage(p, hmms.DefaultStorageOpts())
}

// checkPlanInvariants verifies the four critical moments of §4.3 are
// ordered correctly for every entry: Check's ranges, with the offload
// inside the forward pass and the prefetch inside the backward pass.
func checkPlanInvariants(t *testing.T, p *hmms.Program, plan *hmms.OffloadPlan) {
	t.Helper()
	if err := plan.Check(p); err != nil {
		t.Fatal(err)
	}
	for _, e := range plan.Entries {
		if e.SyncAtOp >= p.NumForward {
			t.Fatalf("sync op %d outside forward", e.SyncAtOp)
		}
		if e.PrefetchAtOp < p.NumForward {
			t.Fatalf("prefetch op %d before the start of backward", e.PrefetchAtOp)
		}
	}
}

func TestPlanOffloadInvariants(t *testing.T) {
	p, a := buildVGG(t, 16)
	plan, err := hmms.PlanOffload(p, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) == 0 {
		t.Fatal("empty plan for VGG-19")
	}
	checkPlanInvariants(t, p, plan)
	if plan.OffloadedBytes > plan.CandidateBytes {
		t.Fatal("offloaded more than available")
	}
	// VGG-19 is fully offloadable at the theoretical limit.
	if got := plan.Fraction(); got < 0.95 {
		t.Fatalf("VGG-19 offload fraction %.2f, want ~1 (Figure 1)", got)
	}
}

func TestPlanOffloadRespectsLimit(t *testing.T) {
	p, a := buildVGG(t, 16)
	for _, limit := range []float64{0, 0.25, 0.5} {
		plan, err := hmms.PlanOffload(p, a, limit)
		if err != nil {
			t.Fatal(err)
		}
		if f := plan.Fraction(); f > limit+1e-9 {
			t.Fatalf("limit %v exceeded: fraction %v", limit, f)
		}
		checkPlanInvariants(t, p, plan)
	}
	if _, err := hmms.PlanOffload(p, a, 1.5); err == nil {
		t.Fatal("limit > 1 accepted")
	}
	if _, err := hmms.PlanOffload(p, a, -0.5); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestPlanLayerWiseInvariants(t *testing.T) {
	p, a := buildVGG(t, 16)
	plan, err := hmms.PlanLayerWise(p, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) == 0 {
		t.Fatal("empty layer-wise plan")
	}
	checkPlanInvariants(t, p, plan)
	for _, e := range plan.Entries {
		if e.SyncAtOp != e.OffloadAtOp {
			t.Fatalf("layer-wise must synchronize eagerly: offload %d sync %d", e.OffloadAtOp, e.SyncAtOp)
		}
	}
}

// TestHMMSSpreadsSynchronization is the qualitative §6.2 claim: HMMS
// plans strictly later synchronization points than the eager layer-wise
// scheme for at least some TSOs ("plan a longer duration of offloading
// time without eagerly synchronizing").
func TestHMMSSpreadsSynchronization(t *testing.T) {
	p, a := buildVGG(t, 16)
	hp, err := hmms.PlanOffload(p, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	spread := 0
	for _, e := range hp.Entries {
		if e.SyncAtOp > e.OffloadAtOp {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("HMMS never spread a synchronization across ops")
	}
}

func TestPlanNone(t *testing.T) {
	plan := hmms.PlanNone()
	if len(plan.Entries) != 0 || plan.OffloadedBytes != 0 {
		t.Fatal("baseline plan must be empty")
	}
}

func TestPlanMemoryPools(t *testing.T) {
	p, a := buildVGG(t, 16)
	plan, err := hmms.PlanOffload(p, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := hmms.PlanMemory(p, a, plan, hmms.FirstFit)
	if mem.PoolBytes[hmms.PoolDeviceParam] <= 0 || mem.PoolBytes[hmms.PoolDeviceGeneral] <= 0 {
		t.Fatal("device pools empty")
	}
	if mem.PoolBytes[hmms.PoolHost] <= 0 {
		t.Fatal("host pool empty despite offloading")
	}
	// Parameter pool is the raw parameter+gradient footprint: VGG-19 has
	// ~143.6M params -> ~1.15 GB for values+grads.
	pb := mem.PoolBytes[hmms.PoolDeviceParam]
	if pb < 1_100_000_000 || pb > 1_250_000_000 {
		t.Fatalf("param pool %d bytes, want ~1.15 GB", pb)
	}
	// First-fit must beat no-reuse substantially.
	if mem.PoolBytes[hmms.PoolDeviceGeneral] >= mem.NoReuseBytes {
		t.Fatal("first-fit no better than no-reuse")
	}
	noPlan := hmms.PlanMemory(p, a, hmms.PlanNone(), hmms.FirstFit)
	if noPlan.PoolBytes[hmms.PoolHost] != 0 {
		t.Fatal("baseline plan should use no host memory")
	}
}

// TestOffloadReducesDevicePool: at a batch size where accumulated
// stashes (not the early-layer transient) set the peak, the offload plan
// must shrink the device general pool versus no offloading.
func TestOffloadReducesDevicePool(t *testing.T) {
	p, a := buildVGG(t, 64)
	plan, err := hmms.PlanOffload(p, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := hmms.PlanMemory(p, a, plan, hmms.FirstFit)
	noPlan := hmms.PlanMemory(p, a, hmms.PlanNone(), hmms.FirstFit)
	if mem.PoolBytes[hmms.PoolDeviceGeneral] >= noPlan.PoolBytes[hmms.PoolDeviceGeneral] {
		t.Fatalf("offloading did not reduce the device general pool: %d vs %d",
			mem.PoolBytes[hmms.PoolDeviceGeneral], noPlan.PoolBytes[hmms.PoolDeviceGeneral])
	}
}

// TestFirstFitNoOverlap is the allocator's soundness property: two
// blocks whose lifetimes overlap must not overlap in address space.
func TestFirstFitNoOverlap(t *testing.T) {
	p, a := buildVGG(t, 8)
	plan, err := hmms.PlanOffload(p, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := hmms.PlanMemory(p, a, plan, hmms.FirstFit)
	byPool := map[hmms.Pool][]*hmms.Block{}
	for _, b := range mem.Blocks {
		byPool[b.Pool] = append(byPool[b.Pool], b)
	}
	for pool, blocks := range byPool {
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				x, y := blocks[i], blocks[j]
				timeOverlap := x.Start <= y.End && y.Start <= x.End
				addrOverlap := x.Offset < y.Offset+y.Bytes && y.Offset < x.Offset+x.Bytes
				if timeOverlap && addrOverlap {
					t.Fatalf("pool %v: blocks %q [%d,%d]@%d+%d and %q [%d,%d]@%d+%d overlap",
						pool, x.Name, x.Start, x.End, x.Offset, x.Bytes,
						y.Name, y.Start, y.End, y.Offset, y.Bytes)
				}
			}
		}
	}
}

// TestAblationStorageOptimizations measures that the §4.2 optimizations
// actually reduce planned memory.
func TestAblationStorageOptimizations(t *testing.T) {
	m := models.ResNet18ImageNet(8)
	p, err := hmms.BuildProgram(m.Graph, costmodel.P100())
	if err != nil {
		t.Fatal(err)
	}
	with := hmms.AssignStorage(p, hmms.DefaultStorageOpts())
	without := hmms.AssignStorage(p, hmms.StorageOpts{})
	if len(with.TSOs) >= len(without.TSOs) {
		t.Fatalf("optimizations did not merge TSOs: %d vs %d", len(with.TSOs), len(without.TSOs))
	}
	memWith := hmms.PlanMemory(p, with, hmms.PlanNone(), hmms.FirstFit)
	memWithout := hmms.PlanMemory(p, without, hmms.PlanNone(), hmms.FirstFit)
	if memWith.PoolBytes[hmms.PoolDeviceGeneral] > memWithout.PoolBytes[hmms.PoolDeviceGeneral] {
		t.Fatal("optimizations increased planned memory")
	}
}
