// Package memlayout implements the static offset assignment at the core
// of the paper's §4.4 memory planner: given blocks with byte sizes and
// [Start, End] lifetimes in op indices, lay them out in one contiguous
// pool so that no two simultaneously-live blocks overlap, and return the
// pool's peak size. It is the machinery shared by the offline HMMS
// simulation planner (internal/hmms) and the compiled-execution slab
// planner (internal/graph.Compile): both want the same first-fit
// packing, one over simulated TSOs, one over real host buffers.
//
// The package is a leaf — it imports nothing from this repository — so
// both clients can depend on it without cycles.
package memlayout

import (
	"cmp"
	"slices"
)

// Block is one allocation request: Bytes of storage live from the start
// of step Start through the end of step End (inclusive). FirstFit and
// Sequential write the resulting Offset in place.
type Block struct {
	// Start and End bound the lifetime in op/step indices, inclusive.
	Start, End int
	Bytes      int64
	Offset     int64
}

// FirstFit places each block at the lowest offset where it fits among
// blocks still live at its birth — the paper's allocation strategy.
// Blocks are considered in order of Start (FIFO through the serialized
// program), breaking ties by larger size for tighter packing and then
// by submission order, which makes the layout deterministic. It
// returns the pool size (peak offset + size). The caller's slice order
// is preserved; offsets are written in place.
//
// The live set is kept in offset order across placements, so each
// placement is one pass over it that drops the blocks which ended
// before the new one starts, finds the first gap the new block fits,
// and inserts it there: O(N·L) for N blocks with at most L live at any
// birth, plus the O(N log N) ordering, with no per-block sort.
func FirstFit(blocks []*Block) int64 {
	var peak int64
	var live []liveBlock
	for _, i := range allocationOrder(blocks) {
		b := blocks[i]
		// Walk the live set up to the first gap of b.Bytes, compacting
		// it into live[:w] and dropping the blocks that ended before b's
		// birth: their bytes are free again.
		var off int64
		w, j := 0, 0
		for ; j < len(live); j++ {
			l := live[j]
			if l.end < b.Start {
				continue
			}
			if off+b.Bytes <= l.offset {
				break
			}
			off = max(off, l.offset+l.bytes)
			live[w] = l
			w++
		}
		// b goes into the gap and the rest of the set moves up one slot,
		// still dropping expired blocks: carry holds the block displaced
		// from the slot just written.
		carry := liveBlock{b.End, off, b.Bytes}
		for ; j < len(live); j++ {
			if l := live[j]; l.end >= b.Start {
				live[w], carry = carry, l
				w++
			}
		}
		live = append(live[:w], carry)
		b.Offset = off
		peak = max(peak, off+b.Bytes)
	}
	return peak
}

// liveBlock is one entry of FirstFit's live set: a placed block that
// occupies [offset, offset+bytes) through step end.
type liveBlock struct {
	end           int
	offset, bytes int64
}

// Sequential gives every block a distinct offset with no lifetime-based
// reuse — the ablation baseline against FirstFit.
func Sequential(blocks []*Block) int64 {
	var off int64
	for _, i := range allocationOrder(blocks) {
		blocks[i].Offset = off
		off += blocks[i].Bytes
	}
	return off
}

// allocationOrder returns the indices of blocks in allocation order —
// by Start, larger first among equals, then by index — without
// disturbing the caller's slice. The order is total, so it is the
// permutation a stable sort on (Start, larger first) gives.
func allocationOrder(blocks []*Block) []int {
	type key struct {
		start int
		bytes int64
		index int
	}
	keys := make([]key, len(blocks))
	for i, b := range blocks {
		keys[i] = key{b.Start, b.Bytes, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.start != b.start:
			return cmp.Compare(a.start, b.start)
		case a.bytes != b.bytes:
			return cmp.Compare(b.bytes, a.bytes)
		}
		return cmp.Compare(a.index, b.index)
	})
	order := make([]int, len(keys))
	for i, k := range keys {
		order[i] = k.index
	}
	return order
}
