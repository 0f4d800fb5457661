package hmms

import (
	"fmt"

	"splitcnn/internal/memlayout"
)

// Pool identifies one of the three contiguous memory pools of §4.4.
type Pool int

// Memory pools.
const (
	// PoolHost is the pinned host pool receiving offloaded TSOs.
	PoolHost Pool = iota
	// PoolDeviceParam holds parameters and their gradients.
	PoolDeviceParam
	// PoolDeviceGeneral holds activations, gradients, and workspace.
	PoolDeviceGeneral
)

// String names the pool.
func (p Pool) String() string {
	switch p {
	case PoolHost:
		return "host"
	case PoolDeviceParam:
		return "device-param"
	case PoolDeviceGeneral:
		return "device-general"
	}
	return fmt.Sprintf("Pool(%d)", int(p))
}

// Block is one static allocation: a TSO (or workspace) placed at a fixed
// offset for a fixed op-index lifetime.
type Block struct {
	Name string
	Pool Pool
	// Start/End bound the lifetime in op indices (inclusive): the block
	// is live from the start of op Start through the end of op End.
	Start, End int
	Offset     int64
	Bytes      int64
}

// MemoryPlan is the output of static memory planning: every storage
// object has a fixed offset, and each pool has a static size equal to
// the peak of its first-fit layout. Planning happens entirely offline,
// so there is no runtime allocation (§4.4).
type MemoryPlan struct {
	Blocks    []*Block
	PoolBytes map[Pool]int64
	// NoReuseBytes is what the device general pool would need without
	// lifetime-based reuse (every TSO resident simultaneously) — the
	// ablation baseline for the first-fit allocator.
	NoReuseBytes int64
}

// DeviceBytes returns total planned device memory (both device pools).
func (m *MemoryPlan) DeviceBytes() int64 {
	return m.PoolBytes[PoolDeviceParam] + m.PoolBytes[PoolDeviceGeneral]
}

// Allocator is the allocation strategy for the general pools.
type Allocator int

// Allocation strategies.
const (
	// FirstFit places each block at the lowest offset where it fits
	// among live blocks — the paper's strategy.
	FirstFit Allocator = iota
	// NoReuse gives every block a distinct offset (no lifetime reuse);
	// used only by the allocator ablation.
	NoReuse
)

// PlanMemory performs step five of §4: it derives every TSO's lifetime
// from the program, the storage assignment, and the offload plan, then
// lays the TSOs out in their pools with the chosen allocator.
//
// Lifetimes follow the plan's critical moments: an offloaded TSO's
// device block dies at its end-of-offload synchronization and a fresh
// device block is born at prefetch start; its host block lives from
// offload start to its last backward read; workspace blocks live only
// during their op.
func PlanMemory(p *Program, a *Assignment, plan *OffloadPlan, alloc Allocator) *MemoryPlan {
	lastOp := len(p.Ops) - 1
	// offloaded[id] is TSO id's offload entry (the first, if a plan
	// names it twice), or nil.
	offloaded := make([]*OffloadEntry, len(a.TSOs))
	for _, e := range plan.Entries {
		if id := int(e.TSO); id >= 0 && id < len(offloaded) && offloaded[id] == nil {
			offloaded[id] = e
		}
	}
	// Blocks are collected by value, in an array sized for one block per
	// TSO, two more per offloaded TSO and one per op with a workspace,
	// and handed out as pointers into it.
	n := len(a.TSOs)
	for _, e := range offloaded {
		if e != nil {
			n += 2
		}
	}
	for i := range p.Ops {
		if p.Ops[i].Workspace > 0 {
			n++
		}
	}
	blocks := make([]Block, 0, n)

	for _, tso := range a.TSOs {
		name := p.Tensors[tso.Tensors[0]].Name
		switch tso.Kind {
		case KParam, KParamGrad:
			blocks = append(blocks, Block{Name: name, Pool: PoolDeviceParam, Start: 0, End: lastOp, Bytes: tso.Bytes})
			continue
		}
		// Lifetime bounds over member tensors.
		start, end := lastOp+1, -1
		for _, tid := range tso.Tensors {
			t := p.Tensors[tid]
			s := t.Producer
			if s < 0 {
				s = 0 // external input: resident from the start
			}
			if s < start {
				start = s
			}
			if e := t.LastUse(); e > end {
				end = e
			}
		}
		if end < 0 {
			continue // dead tensor: never used
		}
		if e := offloaded[tso.ID]; e != nil {
			// Device residency splits in two: [start, SyncAtOp] and
			// [PrefetchAtOp, end]; the host copy spans the middle.
			blocks = append(blocks,
				Block{Name: name, Pool: PoolDeviceGeneral, Start: start, End: e.SyncAtOp, Bytes: tso.Bytes},
				Block{Name: name + ".pf", Pool: PoolDeviceGeneral, Start: e.PrefetchAtOp, End: end, Bytes: tso.Bytes},
				Block{Name: name + ".host", Pool: PoolHost, Start: e.OffloadAtOp, End: end, Bytes: tso.Bytes},
			)
			continue
		}
		blocks = append(blocks, Block{Name: name, Pool: PoolDeviceGeneral, Start: start, End: end, Bytes: tso.Bytes})
	}
	// Workspace: alive only during its op (cuDNN workspace analogue).
	for i := range p.Ops {
		if op := &p.Ops[i]; op.Workspace > 0 {
			blocks = append(blocks, Block{Name: op.Name + ".ws", Pool: PoolDeviceGeneral, Start: op.Index, End: op.Index, Bytes: op.Workspace})
		}
	}

	m := &MemoryPlan{Blocks: make([]*Block, len(blocks)), PoolBytes: make(map[Pool]int64)}
	for i := range blocks {
		m.Blocks[i] = &blocks[i]
	}
	sel := make([]*Block, 0, len(blocks))
	for _, pool := range []Pool{PoolHost, PoolDeviceParam, PoolDeviceGeneral} {
		sel = sel[:0]
		for _, b := range m.Blocks {
			if b.Pool == pool {
				sel = append(sel, b)
			}
		}
		if pool == PoolDeviceGeneral {
			var sum int64
			for _, b := range sel {
				sum += b.Bytes
			}
			m.NoReuseBytes = sum
		}
		m.PoolBytes[pool] = layout(sel, alloc)
	}
	return m
}

// layout assigns offsets with the chosen allocator and returns the pool
// size (peak offset + size). The packing algorithms live in
// internal/memlayout, shared with the compiled-execution slab planner;
// this wrapper maps hmms pool blocks onto layout blocks, all in one
// backing array, and copies the offsets back.
func layout(blocks []*Block, alloc Allocator) int64 {
	backing := make([]memlayout.Block, len(blocks))
	ml := make([]*memlayout.Block, len(blocks))
	for i, b := range blocks {
		backing[i] = memlayout.Block{Start: b.Start, End: b.End, Bytes: b.Bytes}
		ml[i] = &backing[i]
	}
	var peak int64
	if alloc == NoReuse {
		peak = memlayout.Sequential(ml)
	} else {
		peak = memlayout.FirstFit(ml)
	}
	for i, b := range blocks {
		b.Offset = backing[i].Offset
	}
	return peak
}
