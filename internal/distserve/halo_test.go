package distserve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"splitcnn/internal/dist"
	"splitcnn/internal/graph"
	"splitcnn/internal/serve"
	"splitcnn/internal/tensor"
)

// gangLog records what one runGang moved between shards.
type gangLog struct {
	mu        sync.Mutex
	fetches   map[haloKey][]HaloSeg // (stage, reader) → segments fetched, in issue order
	published map[haloKey]Range     // (stage, owner) → rows handed to publish
}

// haloKey is (stage, shard).
type haloKey struct{ stage, shard int }

// runGang evaluates every shard of an owners table concurrently, with
// halo rows flowing through per-shard dist.Exchanges exactly as the RPC
// workers do — publish to your own for the table's reader count, wait
// on the owner's, close on return — and stitches the shard bands into
// the full final-stage feature map. Every exchange must be empty once
// the gang is done: a cell left unread keeps its request resident, an
// over-read parks on a cell nobody publishes and fails the gang.
func runGang(t *testing.T, se *ShardEval, image *tensor.Tensor, owners [][]Range) (*tensor.Tensor, *gangLog) {
	t.Helper()
	p := se.Plan()
	n := len(owners[0])
	halo := p.haloFor(owners)
	log := &gangLog{fetches: map[haloKey][]HaloSeg{}, published: map[haloKey]Range{}}
	exch := make([]*dist.Exchange, n)
	for s := range exch {
		exch[s] = dist.NewExchange()
		exch[s].Open(fmt.Sprintf("s%d", s), time.Now().Add(time.Minute))
	}
	last := p.Last()
	full := tensor.New(1, last.OutC, last.OutH, last.OutW)
	var wg sync.WaitGroup
	errs := make([]error, n)
	var mu sync.Mutex
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			imgR := p.ImageRange(owners, s)
			var band *tensor.Tensor
			if !imgR.Empty() {
				band = SliceRows(image, 0, imgR)
			}
			fetch := func(stage, owner int, rows Range) (*tensor.Tensor, error) {
				log.mu.Lock()
				k := haloKey{stage, s}
				log.fetches[k] = append(log.fetches[k], HaloSeg{Owner: owner, Rows: rows})
				log.mu.Unlock()
				v, err := exch[owner].Wait(fmt.Sprintf("s%d", owner), stage, 10*time.Second)
				if err != nil {
					return nil, err
				}
				hr := v.(*haloRows)
				if rows.Lo < hr.rows.Lo || rows.Hi > hr.rows.Hi {
					return nil, fmt.Errorf("fetch %v of stage %d outside published rows %v", rows, stage, hr.rows)
				}
				return SliceRows(hr.t, hr.rows.Lo, rows), nil
			}
			publish := func(stage int, rows Range, y *tensor.Tensor) {
				log.mu.Lock()
				log.published[haloKey{stage, s}] = rows
				log.mu.Unlock()
				exch[s].PublishCounted(fmt.Sprintf("s%d", s), stage, &haloRows{rows: rows, t: y},
					halo.Bands[stage][s].Readers, nil)
			}
			out, outR, err := se.RunShard(band, s, owners, fetch, publish, nil)
			if err != nil {
				errs[s] = err
				// Fail the whole gang fast so waiters don't hang.
				for _, e := range exch {
					e.Expire(time.Now().Add(time.Hour))
				}
				return
			}
			exch[s].Close(fmt.Sprintf("s%d", s))
			if out != nil {
				mu.Lock()
				copyRows(full, outR.Lo, out, 0, outR.Len())
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	for s, e := range exch {
		if e.Len() != 0 {
			t.Fatalf("shard %d: exchange still holds its request after the gang finished: a published cell was not read by every reader the table counts", s)
		}
	}
	if st := se.ArenaStats(); st.InUseBytes != 0 {
		t.Fatalf("RunShard arenas hold %d bytes after the gang finished", st.InUseBytes)
	}
	return full, log
}

// checkHaloTable holds one gang run to its table: the fetches issued
// and the rows published are the table's, entry for entry, and the
// table's byte total is the closed form over Owners and InputRange that
// bench/ reports as distserve.halo_bytes_per_img.
func checkHaloTable(t *testing.T, p *Plan, owners [][]Range, log *gangLog) {
	t.Helper()
	halo := p.haloFor(owners)
	n := len(owners[0])
	var tableBytes, closedForm int64
	for i, st := range p.Stages {
		for s := 0; s < n; s++ {
			b := halo.Bands[i][s]
			k := haloKey{i, s}
			if got := log.fetches[k]; !slices.Equal(got, b.Fetch) {
				t.Fatalf("stage %d shard %d: fetched %v, table lists %v", i, s, got, b.Fetch)
			}
			if got, ok := log.published[k]; ok != (b.Readers > 0) || got != b.Rows {
				t.Fatalf("stage %d shard %d: published %v (%v), table says rows %v for %d readers", i, s, got, ok, b.Rows, b.Readers)
			}
			readers := 0
			for r := 0; r < n; r++ {
				for _, seg := range halo.Bands[i][r].Fetch {
					if seg.Owner != s {
						continue
					}
					readers++
					if seg.Rows.Lo < b.Rows.Lo || seg.Rows.Hi > b.Rows.Hi {
						t.Fatalf("stage %d: shard %d fetches %v outside shard %d's published hull %v", i, r, seg.Rows, s, b.Rows)
					}
				}
			}
			if readers != b.Readers {
				t.Fatalf("stage %d shard %d: %d readers fetch from it, table counts %d", i, s, readers, b.Readers)
			}
			for _, seg := range b.Fetch {
				tableBytes += int64(seg.Rows.Len()) * int64(st.OutC) * int64(st.OutW) * 4
			}
			if i == 0 {
				continue
			}
			need := st.ClipInput(st.InputRange(owners[i][s]))
			for o, band := range owners[i-1] {
				if o != s {
					closedForm += int64(intersect(band, need).Len()) * int64(st.InC) * int64(st.InW) * 4
				}
			}
		}
	}
	if tableBytes != closedForm {
		t.Fatalf("table moves %d halo bytes per image, closed form says %d", tableBytes, closedForm)
	}
}

// referenceTail runs the unsplit graph and returns (tail feature map,
// logits) — the ground truth both the gang and the router must match.
func referenceTail(t *testing.T, spec serve.Spec, image *tensor.Tensor) (*Plan, *ShardEval, *tensor.Tensor, []float32) {
	t.Helper()
	m, store, err := serve.Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardEval(p, store)
	if err != nil {
		t.Fatal(err)
	}
	tail := m.Graph.FindNode(p.Tail)
	if tail == nil {
		t.Fatalf("tail node %q not found", p.Tail)
	}
	m.Graph.SetOutput(m.Logits, tail)
	ex, err := graph.NewExecutor(m.Graph, store)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Input.Shape
	x := tensor.New(1, s.C(), s.H(), s.W())
	copy(x.Data(), image.Data())
	outs, err := ex.Forward(graph.Feeds{"image": x, "labels": tensor.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	logits := append([]float32(nil), outs[0].Data()...)
	fm := outs[1].Clone()
	m.Graph.SetOutput(m.Logits) // restore the serving contract
	return p, se, fm, logits
}

func randImage(rng *rand.Rand, c, h, w int) *tensor.Tensor {
	t := tensor.New(1, c, h, w)
	d := t.Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	return t
}

func maxAbsDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestHaloGangMatchesUnsplit is the halo-correctness contract: for the
// plan's own (even-aligned) partitions the gang's stitched feature map
// is bit-identical to the unsplit executor's; single-shard gangs are the
// degenerate case.
func TestHaloGangMatchesUnsplit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, arch := range []string{"vgg16", "resnet18"} {
		t.Run(arch, func(t *testing.T) {
			spec := testSpec(arch)
			image := randImage(rng, 3, spec.Model.InputH, spec.Model.InputW)
			p, se, want, _ := referenceTail(t, spec, image)
			for n := 1; n <= 5; n++ {
				got, _ := runGang(t, se, image, p.Owners(n))
				if !bitIdentical(got.Data(), want.Data()) {
					t.Fatalf("n=%d: gang diverges from unsplit run (max |Δ| %g)",
						n, maxAbsDiff(got.Data(), want.Data()))
				}
			}
		})
	}
}

// TestHaloGangRandomGeometries stresses the halo math with arbitrary
// (odd, uneven, empty-band) partitions. The convolution kernel is the
// shape-invariant implicit GEMM, so every cut — odd ones included — is
// bit-identical to the unsplit run.
func TestHaloGangRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := testSpec("vgg16")
	image := randImage(rng, 3, spec.Model.InputH, spec.Model.InputW)
	p, se, want, _ := referenceTail(t, spec, image)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		owners := make([][]Range, len(p.Stages))
		for i, st := range p.Stages {
			cuts := make([]int, n+1)
			cuts[n] = st.OutH
			for j := 1; j < n; j++ {
				cuts[j] = rng.Intn(st.OutH + 1)
			}
			// Interior cuts must be sorted, not even.
			for j := 1; j < n; j++ {
				if cuts[j] < cuts[j-1] {
					cuts[j] = cuts[j-1]
				}
			}
			owners[i] = make([]Range, n)
			for s := 0; s < n; s++ {
				owners[i][s] = Range{cuts[s], cuts[s+1]}
			}
		}
		got, log := runGang(t, se, image, owners)
		if !bitIdentical(got.Data(), want.Data()) {
			t.Fatalf("trial %d (n=%d): not bit-identical to the unsplit run (max |Δ| %g)", trial, n, maxAbsDiff(got.Data(), want.Data()))
		}
		checkHaloTable(t, p, owners, log)
	}
}

// TestEvalStageRejectsBadBand: the band contract is enforced, not
// assumed.
func TestEvalStageRejectsBadBand(t *testing.T) {
	spec := testSpec("vgg16")
	m, store, err := serve.Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardEval(p, store)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stages[0]
	short := tensor.New(1, st.InC, 3, st.InW) // too few rows for the full output
	if _, err := se.EvalStage(0, short, Range{0, st.OutH}); err == nil {
		t.Fatal("EvalStage accepted an undersized input band")
	}
	if y, err := se.EvalStage(0, nil, Range{}); err != nil || y != nil {
		t.Fatalf("empty band: got (%v, %v), want (nil, nil)", y, err)
	}
}

// TestHaloTableIsTheTruth: for every bundled architecture and gang size
// the fetches RunShard issues and the rows it publishes are exactly the
// plan's halo table (runGang additionally proves every published cell
// is read by exactly the counted readers), and the serving net's gang-2
// numbers are the ones the benchmark pins.
func TestHaloTableIsTheTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, arch := range []string{"alexnet", "vgg16", "vgg19", "resnet18", "resnet50"} {
		t.Run(arch, func(t *testing.T) {
			spec := testSpec(arch)
			image := randImage(rng, 3, spec.Model.InputH, spec.Model.InputW)
			p, se, want, _ := referenceTail(t, spec, image)
			for n := 1; n <= 5; n++ {
				got, log := runGang(t, se, image, p.Owners(n))
				if !bitIdentical(got.Data(), want.Data()) {
					t.Fatalf("n=%d: gang diverges from unsplit run", n)
				}
				checkHaloTable(t, p, p.Owners(n), log)
			}
		})
	}

	// The serving spec of the dist_gang2 workload (bench/w_serve.go).
	spec := testSpec("vgg19")
	spec.Model.BatchNorm = true
	m, _, err := serve.Materialize(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	var haloBytes, maxInput, published int64
	for i, bands := range p.Halo(2).Bands {
		st := p.Stages[i]
		rowBytes := int64(st.OutC) * int64(st.OutW) * 4
		for s, b := range bands {
			for _, seg := range b.Fetch {
				haloBytes += int64(seg.Rows.Len()) * rowBytes
			}
			published += int64(b.Rows.Len()) * rowBytes
			need := st.ClipInput(st.InputRange(p.Owners(2)[i][s]))
			maxInput = max(maxInput, int64(need.Len())*int64(st.InC)*int64(st.InW)*4)
		}
	}
	if haloBytes != 10752 || published != 10752 || maxInput != 8704 {
		t.Fatalf("serving vgg19 at gang 2: %d halo bytes fetched, %d published, %d max shard input; want 10752, 10752, 8704",
			haloBytes, published, maxInput)
	}
}
