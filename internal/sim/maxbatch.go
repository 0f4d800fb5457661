package sim

import "fmt"

// MaxBatch returns the largest batch in [1, hi] whose planned footprint,
// as eval reports it, fits in capacity bytes — the search behind Fig. 10
// and `splitcnn maxbatch`. The footprint must not shrink as the batch
// grows, so the search bisects. An eval error ends the search and is
// returned: a planner failure is not "does not fit". A batch of 1 that
// does not fit is an error too, not an answer.
func MaxBatch(capacity int64, hi int, eval func(batch int) (int64, error)) (int, error) {
	if hi < 1 {
		return 0, fmt.Errorf("sim.MaxBatch: upper bound %d < 1", hi)
	}
	fits := func(batch int) (bool, error) {
		bytes, err := eval(batch)
		if err != nil {
			return false, fmt.Errorf("sim.MaxBatch: batch %d: %w", batch, err)
		}
		return bytes <= capacity, nil
	}
	lo := 1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	// Every lo above 1 was seen to fit; batch 1 may never have been tried.
	if lo == 1 {
		ok, err := fits(1)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("sim.MaxBatch: batch 1 exceeds capacity %d B", capacity)
		}
	}
	return lo, nil
}
