package memlayout

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// referenceFirstFit is the original first-fit allocator: it keeps the
// live set as pointers and re-sorts it by offset for every placement.
// It is the oracle FirstFit must match offset for offset.
func referenceFirstFit(blocks []*Block) int64 {
	blocks = referenceSortedCopy(blocks)
	var peak int64
	var live []*Block
	for _, b := range blocks {
		// Expire blocks that ended strictly before this one starts.
		kept := live[:0]
		for _, l := range live {
			if l.End >= b.Start {
				kept = append(kept, l)
			}
		}
		live = kept
		sort.Slice(live, func(i, j int) bool { return live[i].Offset < live[j].Offset })
		var off int64
		for _, l := range live {
			if off+b.Bytes <= l.Offset {
				break
			}
			if end := l.Offset + l.Bytes; end > off {
				off = end
			}
		}
		b.Offset = off
		live = append(live, b)
		if top := off + b.Bytes; top > peak {
			peak = top
		}
	}
	return peak
}

// referenceSortedCopy returns the blocks in allocation order — by
// Start, larger first among equals — without disturbing the caller's
// slice.
func referenceSortedCopy(blocks []*Block) []*Block {
	ordered := make([]*Block, len(blocks))
	copy(ordered, blocks)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].Bytes > ordered[j].Bytes
	})
	return ordered
}

// checkAgainstReference lays out two copies of blocks, one with each
// allocator, and fails on the first offset or peak that differs.
func checkAgainstReference(t *testing.T, label string, blocks []Block) {
	t.Helper()
	got := make([]*Block, len(blocks))
	want := make([]*Block, len(blocks))
	for i := range blocks {
		g, w := blocks[i], blocks[i]
		got[i], want[i] = &g, &w
	}
	gp, wp := FirstFit(got), referenceFirstFit(want)
	if gp != wp {
		t.Fatalf("%s: peak %d, reference %d", label, gp, wp)
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Fatalf("%s: block %d is %+v, reference %+v", label, i, *got[i], *want[i])
		}
	}
}

// randomBlocks draws one block set from a mix of regimes: set sizes up
// to 3,000, crowded or spread births (many equal Starts), short, long
// and nested lifetimes, and sizes that are zero, drawn from a few equal
// values, or anywhere up to 2⁴⁰.
func randomBlocks(rng *rand.Rand) []Block {
	n := 1 + rng.Intn([]int{8, 64, 512, 3000}[rng.Intn(4)])
	if n > 512 && rng.Intn(4) > 0 {
		n = 1 + rng.Intn(512) // keep the mix dominated by sets the oracle sorts quickly
	}
	horizon := 1 + rng.Intn(n)
	maxLife := []int{1, 4, horizon}[rng.Intn(3)]
	sizes := []int64{0, 1, 64, 4096, 1 << 40}
	blocks := make([]Block, n)
	for i := range blocks {
		b := &blocks[i]
		if i > 0 && rng.Intn(4) == 0 {
			// Nested inside an earlier block's lifetime.
			p := blocks[rng.Intn(i)]
			b.Start = p.Start + rng.Intn(p.End-p.Start+1)
			b.End = b.Start + rng.Intn(p.End-b.Start+1)
		} else {
			b.Start = rng.Intn(horizon)
			b.End = b.Start + rng.Intn(maxLife)
		}
		switch rng.Intn(4) {
		case 0:
			b.Bytes = sizes[rng.Intn(len(sizes))]
		case 1:
			b.Bytes = int64(rng.Intn(4)) * 256
		case 2:
			b.Bytes = rng.Int63n(1<<40 + 1)
		default:
			b.Bytes = int64(1+rng.Intn(1000)) * 4
		}
	}
	return blocks
}

// TestFirstFitMatchesReference: on 1,000 seeded random block sets,
// FirstFit writes exactly the reference allocator's offsets and
// returns its peak.
func TestFirstFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 1000; trial++ {
		checkAgainstReference(t, fmt.Sprintf("trial %d", trial), randomBlocks(rng))
	}
}

// FuzzFirstFit: every 3-byte record of the input is one block — a
// Start, a lifetime length and a size code (zero, a power of two up to
// 2⁴⁰, or a small multiple of 4) — and FirstFit must match the
// reference allocator on the resulting set.
func FuzzFirstFit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10, 2, 1, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 5, 40, 0, 5, 40})
	f.Add([]byte{3, 9, 200, 1, 2, 201, 1, 0, 0, 4, 1, 202, 2, 7, 40, 2, 7, 40, 0, 15, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks := make([]Block, 0, len(data)/3)
		for i := 0; i+3 <= len(data); i += 3 {
			start := int(data[i] % 32)
			b := Block{Start: start, End: start + int(data[i+1]%16)}
			switch c := data[i+2]; {
			case c == 0:
			case c <= 41:
				b.Bytes = 1 << (c - 1)
			default:
				b.Bytes = int64(c) * 4
			}
			blocks = append(blocks, b)
		}
		checkAgainstReference(t, "fuzz", blocks)
	})
}
