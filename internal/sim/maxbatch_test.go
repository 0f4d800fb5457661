package sim_test

import (
	"errors"
	"testing"

	"splitcnn/internal/sim"
)

// TestMaxBatch drives the bisection with stub footprints: a monotone
// footprint yields the exact boundary, an eval error is returned rather
// than read as "does not fit", and a batch of 1 that overflows is an
// error rather than an answer.
func TestMaxBatch(t *testing.T) {
	errPlan := errors.New("planner failed")
	linear := func(perImage int64) func(int) (int64, error) {
		return func(b int) (int64, error) { return int64(b) * perImage, nil }
	}
	for _, tc := range []struct {
		name     string
		capacity int64
		hi       int
		eval     func(int) (int64, error)
		want     int
		wantErr  error // nil: must succeed; errPlan: must wrap it; other: any error
	}{
		{"boundary", 12345, 8192, linear(100), 123, nil},
		{"exact fit", 12300, 8192, linear(100), 123, nil},
		{"batch 1 only", 100, 8192, linear(100), 1, nil},
		{"everything fits", 1 << 40, 8192, linear(100), 8192, nil},
		{"hi 1 fits", 100, 1, linear(100), 1, nil},
		{"step footprint", 5000, 64, func(b int) (int64, error) { return int64(b/8) * 1000, nil }, 47, nil},
		{"batch 1 overflows", 99, 8192, linear(100), 0, errors.New("any")},
		{"hi 1 overflows", 99, 1, linear(100), 0, errors.New("any")},
		{"error at mid", 1 << 40, 8192, func(b int) (int64, error) {
			if b == 4097 {
				return 0, errPlan
			}
			return int64(b), nil
		}, 0, errPlan},
		{"error at batch 1", 1, 8192, func(b int) (int64, error) {
			if b == 1 {
				return 0, errPlan
			}
			return int64(b), nil
		}, 0, errPlan},
		{"bad bound", 1 << 40, 0, linear(1), 0, errors.New("any")},
	} {
		got, err := sim.MaxBatch(tc.capacity, tc.hi, tc.eval)
		switch {
		case tc.wantErr == nil && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr == nil && got != tc.want:
			t.Errorf("%s: max batch %d, want %d", tc.name, got, tc.want)
		case tc.wantErr != nil && err == nil:
			t.Errorf("%s: max batch %d, want an error", tc.name, got)
		case tc.wantErr == errPlan && !errors.Is(err, errPlan):
			t.Errorf("%s: error %v does not wrap the eval error", tc.name, err)
		}
	}
}
