package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// The same seed must give the same inputs, byte for byte; another seed
// must not.
func TestGeneratorsAreDeterministic(t *testing.T) {
	const d = 3 * time.Second
	type inputsOf struct {
		pool     [][]float32
		picks    []int
		schedule []time.Duration
		rotation []int
	}
	gen := func(seed int64) inputsOf {
		return inputsOf{imagePool(seed, 4, 3*32*32), pickSequence(seed, 256, poolImages), poissonSchedule(seed, openRate, d), rotation(seed, 9, 8)}
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different inputs")
	}
	if reflect.DeepEqual(a.pool, c.pool) || reflect.DeepEqual(a.picks, c.picks) ||
		reflect.DeepEqual(a.schedule, c.schedule) || reflect.DeepEqual(a.rotation, c.rotation) {
		t.Error("different seeds share an input")
	}
}

func TestPoissonScheduleShape(t *testing.T) {
	const d = 10 * time.Second
	due := poissonSchedule(3, openRate, d)
	if len(due) != int(openRate*d.Seconds()) {
		t.Fatalf("%d arrivals, want rate x duration = %d", len(due), int(openRate*d.Seconds()))
	}
	if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) {
		t.Error("schedule not ascending")
	}
	if due[0] < 0 || due[len(due)-1] >= d {
		t.Errorf("arrivals outside [0, %v): %v .. %v", d, due[0], due[len(due)-1])
	}
	// Exponential gaps: about 1/e of them exceed the mean gap. A regular
	// schedule would have none or all of them there.
	mean := d / time.Duration(len(due))
	long := 0
	for i := 1; i < len(due); i++ {
		if due[i]-due[i-1] > mean {
			long++
		}
	}
	if frac := float64(long) / float64(len(due)-1); frac < 0.30 || frac > 0.44 {
		t.Errorf("%.2f of gaps exceed the mean gap; a Poisson process has about 0.37", frac)
	}
}

func TestRotationIsBalanced(t *testing.T) {
	const k, blocks = 9, 16
	r := rotation(5, k, blocks)
	if len(r) != k*blocks {
		t.Fatalf("len %d", len(r))
	}
	for b := 0; b < blocks; b++ {
		block := append([]int(nil), r[b*k:(b+1)*k]...)
		sort.Ints(block)
		for i, v := range block {
			if v != i {
				t.Fatalf("block %d is not a permutation of 0..%d: %v", b, k-1, r[b*k:(b+1)*k])
			}
		}
	}
}

func TestPlanConfigsCoverTheMatrix(t *testing.T) {
	cfgs := planConfigs()
	if len(cfgs) != 9 {
		t.Fatalf("%d plan configs, want 9", len(cfgs))
	}
	found := false
	for _, c := range cfgs {
		found = found || c.name == planRef
	}
	if !found {
		t.Errorf("reference config %q is not in the set", planRef)
	}
}
