package autotune

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"splitcnn/internal/tensor"
)

func conv3x3() tensor.ConvParams {
	return tensor.ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: tensor.Symmetric(1)}
}

// TestChooseDefaultIsIm2col pins the untuned contract: with no plan
// (or no tuner), every geometry runs the implicit-GEMM im2col kernel;
// Winograd runs only where a tuned plan picks it.
func TestChooseDefaultIsIm2col(t *testing.T) {
	tn := New()
	shape := tensor.Shape{2, 8, 16, 16}
	if a := tn.Choose(conv3x3(), shape, 4); a != Im2col {
		t.Fatalf("3x3/s1 untuned: got %v, want im2col", a)
	}
	p5 := tensor.ConvParams{KH: 5, KW: 5, SH: 1, SW: 1, Pad: tensor.Symmetric(2)}
	if a := tn.Choose(p5, shape, 4); a != Im2col {
		t.Fatalf("5x5 untuned: got %v, want im2col", a)
	}
	var nilT *Tuner
	if a := nilT.Choose(conv3x3(), shape, 4); a != Im2col {
		t.Fatalf("nil tuner: got %v, want im2col", a)
	}
}

func TestApplicable(t *testing.T) {
	shape := tensor.Shape{1, 4, 16, 16}
	strided := tensor.ConvParams{KH: 3, KW: 3, SH: 2, SW: 2, Pad: tensor.Symmetric(1)}
	if Applicable(Winograd, strided, shape, 4) {
		t.Fatal("winograd accepted stride 2")
	}
	if Applicable(FFT, strided, shape, 4) {
		t.Fatal("fft accepted stride 2")
	}
	if !Applicable(Im2col, strided, shape, 4) || !Applicable(Direct, strided, shape, 4) {
		t.Fatal("universal backends rejected a geometry")
	}
	// FFT refused when the spectra would blow the workspace cap.
	huge := tensor.Shape{8, 512, 256, 256}
	if Applicable(FFT, conv3x3(), huge, 512) {
		t.Fatal("fft accepted a shape whose workspace exceeds the cap")
	}
}

// TestCorruptPlanSanitized is the satellite-1 contract: a stale or
// hostile cache entry must never reach a panicking kernel entry point.
func TestCorruptPlanSanitized(t *testing.T) {
	tn := New()
	p5 := tensor.ConvParams{KH: 5, KW: 5, SH: 1, SW: 1, Pad: tensor.Symmetric(2)}
	shape := tensor.Shape{1, 2, 8, 8}
	// Winograd cannot run a 5x5 kernel; a corrupt cache claims it can.
	tn.SetPlan(KeyOf(p5, shape, 3), Decision{Algo: Winograd})
	if a := tn.Choose(p5, shape, 3); a != Im2col {
		t.Fatalf("corrupt plan dispatched %v, want im2col fallback", a)
	}
	strided := tensor.ConvParams{KH: 3, KW: 3, SH: 2, SW: 2, Pad: tensor.Symmetric(1)}
	tn.SetPlan(KeyOf(strided, shape, 3), Decision{Algo: FFT})
	if a := tn.Choose(strided, shape, 3); a != Im2col {
		t.Fatalf("stride-2 FFT plan dispatched %v, want im2col fallback", a)
	}
}

func TestTunePicksMeasuredWinner(t *testing.T) {
	tn := New()
	tn.Trials = 1
	p := conv3x3()
	shape := tensor.Shape{1, 4, 12, 12}
	d := tn.Tune(p, shape, 4)
	if len(d.Seconds) < 3 { // im2col, winograd, direct, fft all apply here
		t.Fatalf("only %d candidates measured: %v", len(d.Seconds), d.Seconds)
	}
	best := d.Algo
	for a, s := range d.Seconds {
		if s < d.Seconds[best] {
			t.Fatalf("winner %v (%.3gs) is not the measured minimum (%v: %.3gs)", best, d.Seconds[best], a, s)
		}
	}
	if a, ok := tn.Plan(p, shape, 4); !ok || a != best {
		t.Fatalf("plan not installed: %v %v", a, ok)
	}
	// The measurement must have fed the cost-model override.
	if s, ok := tn.Overrides.Get(KeyOf(p, shape, 4)); !ok || s <= 0 {
		t.Fatalf("override not fed: %v %v", s, ok)
	}
}

// TestTunedDispatchEquivalence is the property test: for a randomized
// stride-1 shape sweep (including asymmetric split-patch-style
// padding), every algorithm the tuner may install computes the same
// result as Conv2DInto — bit-identical for im2col, within fp32 noise for
// Winograd/direct, within the pinned FFTConvTolerance for FFT.
func TestTunedDispatchEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2)
		cin := 1 + rng.Intn(6)
		cout := 1 + rng.Intn(6)
		kh := 1 + rng.Intn(4)
		kw := 1 + rng.Intn(4)
		h := kh + rng.Intn(14)
		w := kw + rng.Intn(14)
		p := tensor.ConvParams{KH: kh, KW: kw, SH: 1, SW: 1,
			Pad: tensor.Pad2D{Top: rng.Intn(kh), Bottom: rng.Intn(kh), Left: rng.Intn(kw), Right: rng.Intn(kw)}}
		x := tensor.New(n, cin, h, w)
		wt := tensor.New(cout, cin, kh, kw)
		bias := tensor.New(cout)
		x.RandNormal(rng, 1)
		wt.RandNormal(rng, 0.5)
		bias.RandNormal(rng, 0.1)
		oh, ow := p.OutSize(h, w)
		want := tensor.New(n, cout, oh, ow)
		tensor.Conv2DInto(nil, want, x, wt, bias, p)
		for _, algo := range Candidates(p, x.Shape(), cout) {
			dst := tensor.New(n, cout, oh, ow)
			runner(algo)(tensor.NewArena(), dst, x, wt, bias, p)
			tol := 1e-5
			if algo == FFT {
				tol = tensor.FFTConvTolerance
			}
			if e := relErr(dst, want); e > tol {
				t.Fatalf("seed %d algo %v: error %v > %v (shape %v k%dx%d pad%+v)",
					seed, algo, e, tol, x.Shape(), kh, kw, p.Pad)
			}
		}
	}
}

func relErr(got, want *tensor.Tensor) float64 {
	var maxAbs, maxDiff float64
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if a := math.Abs(float64(wd[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(gd[i] - wd[i])); d > maxDiff {
			maxDiff = d
		}
	}
	if maxAbs == 0 {
		return maxDiff
	}
	return maxDiff / maxAbs
}

func TestConcurrentTuneSingleflight(t *testing.T) {
	tn := New()
	tn.Trials = 1
	p := conv3x3()
	shape := tensor.Shape{1, 2, 8, 8}
	var wg sync.WaitGroup
	decisions := make([]Decision, 8)
	for i := range decisions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decisions[i] = tn.Tune(p, shape, 2)
		}(i)
	}
	wg.Wait()
	for i, d := range decisions {
		if d.Algo != decisions[0].Algo {
			t.Fatalf("goroutine %d saw a different plan: %v vs %v", i, d.Algo, decisions[0].Algo)
		}
	}
	if tn.Len() != 1 {
		t.Fatalf("%d plans after concurrent tune of one key", tn.Len())
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "autotune.json")

	tn := New()
	tn.Trials = 1
	tn.SetCachePath(path)
	p := conv3x3()
	shape := tensor.Shape{1, 3, 10, 10}
	d := tn.Tune(p, shape, 4)
	if err := tn.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	re := New()
	if err := re.Load(path); err != nil {
		t.Fatalf("load: %v", err)
	}
	if re.Len() != 1 {
		t.Fatalf("reloaded %d plans, want 1", re.Len())
	}
	if a, ok := re.Plan(p, shape, 4); !ok || a != d.Algo {
		t.Fatalf("reloaded plan %v/%v, want %v", a, ok, d.Algo)
	}
	// Reload rebuilds the measured override from persisted seconds
	// without re-benchmarking.
	if s, ok := re.Overrides.Get(KeyOf(p, shape, 4)); !ok || s != d.Seconds[d.Algo] {
		t.Fatalf("override not rebuilt from cache: %v %v (want %v)", s, ok, d.Seconds[d.Algo])
	}

	// Saving the reloaded tuner unchanged must be a no-op (not dirty).
	before, _ := os.ReadFile(path)
	if err := re.Save(); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatal("clean tuner rewrote the cache file")
	}
}

func TestCacheCorruptFileSilentlyIgnored(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage.json": "{not json at all",
		"version.json": `{"version": 999, "envs": {}}`,
		"badalgo.json": `{"version": 1, "envs": {"` + Env() + `": [{"key":{"KH":3,"KW":3,"SH":1,"SW":1,"N":1,"C":1,"H":8,"W":8,"Cout":1},"algo":"quantum"}]}}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		tn := New()
		if err := tn.Load(path); err != nil {
			t.Fatalf("%s: load returned error %v, want silent re-tune", name, err)
		}
		if tn.Len() != 0 {
			t.Fatalf("%s: %d plans loaded from corrupt cache", name, tn.Len())
		}
	}
	// Missing file: same contract.
	tn := New()
	if err := tn.Load(filepath.Join(dir, "missing.json")); err != nil || tn.Len() != 0 {
		t.Fatalf("missing file: err=%v len=%d", err, tn.Len())
	}
}

func TestCachePreservesForeignEnvSections(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "autotune.json")
	foreign := `{"version":1,"envs":{"mips64/p128":[{"key":{"KH":1,"KW":1,"SH":1,"SW":1,"N":1,"C":1,"H":1,"W":1,"Cout":1},"algo":"direct"}]}}`
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	tn := New()
	tn.Trials = 1
	if err := tn.Load(path); err != nil {
		t.Fatal(err)
	}
	tn.Tune(conv3x3(), tensor.Shape{1, 2, 6, 6}, 2)
	if err := tn.Save(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f cacheFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Envs["mips64/p128"]) != 1 {
		t.Fatal("foreign environment section dropped on save")
	}
	if len(f.Envs[Env()]) != 1 {
		t.Fatal("own environment section missing after save")
	}
}
