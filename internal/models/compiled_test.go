package models_test

import (
	"fmt"
	"math/rand"
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// buildCompiledCase builds one mini model for the compiled-vs-interpreted
// matrix. bnRecompute selects the In-Place-ABN variant (BNReLU coverage);
// bnStates shares running statistics across rebuilds.
func buildCompiledCase(t *testing.T, arch string, batch int, eval, bnRecompute bool, bnStates map[string]*nn.BNState) *models.Model {
	t.Helper()
	cfg := models.Config{
		BatchSize: batch,
		Classes:   10,
		InputC:    3,
		InputH:    32,
		InputW:    32,
		WidthDiv:  16,
		Eval:      eval,
		BNStates:  bnStates,
	}
	if arch == "alexnet" {
		// AlexNet's pooling pyramid needs a larger input.
		cfg.InputH, cfg.InputW = 64, 64
	}
	if bnRecompute {
		cfg.BatchNorm = true
		cfg.BNRecompute = true
	}
	m, err := models.Build(arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Expose the logits next to the loss, like train.Evaluate does.
	m.Graph.Outputs = append(m.Graph.Outputs, m.Logits)
	return m
}

// perturbBNStats moves the shared running statistics off their (0, 1)
// initialization so the eval-mode normalization is non-trivial.
func perturbBNStats(states map[string]*nn.BNState, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, st := range states {
		for ch := range st.RunningMean {
			st.RunningMean[ch] = rng.NormFloat64() * 0.2
			st.RunningVar[ch] = 0.5 + rng.Float64()
		}
		st.Invalidate()
	}
}

func modelFeeds(m *models.Model, seed int64) graph.Feeds {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(m.Input.Shape...)
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = rng.Float32()*2 - 1
	}
	y := tensor.New(m.Labels.Shape...)
	for i := range y.Data() {
		y.Data()[i] = float32(rng.Intn(m.Classes))
	}
	return graph.Feeds{"image": x, "labels": y}
}

// TestCompiledBitIdentityMatrix pins the headline contract: for every
// bundled architecture, in eval and train modes, at batch sizes 1/3/8,
// the compiled program's loss and logits are bit-identical to the
// interpreted arena executor's.
//
// The interpreted and compiled runs use independently built graphs so
// each side owns its own modal ops (the builder seeds dropout RNGs
// deterministically, so both builds hold identical streams), with one
// shared parameter store. Eval mode also shares the BN state registry —
// running statistics are read-only there — while train mode keeps the
// registries separate so each side's State.Update stays private.
func TestCompiledBitIdentityMatrix(t *testing.T) {
	cases := []struct {
		arch        string
		bnRecompute bool
	}{
		{"alexnet", false},
		{"vgg16", false},
		{"vgg19", false},
		{"resnet18", false},
		{"resnet50", false},
		{"resnet18", true}, // In-Place ABN: BNReLU coverage
	}
	for _, tc := range cases {
		for _, eval := range []bool{true, false} {
			for _, batch := range []int{1, 3, 8} {
				name := fmt.Sprintf("%s/eval=%v/batch=%d", tc.arch, eval, batch)
				if tc.bnRecompute {
					name = fmt.Sprintf("%s-abn/eval=%v/batch=%d", tc.arch, eval, batch)
				}
				t.Run(name, func(t *testing.T) {
					seed := int64(len(name))*1000 + int64(batch)

					mi := buildCompiledCase(t, tc.arch, batch, eval, tc.bnRecompute, nil)
					var shared map[string]*nn.BNState
					if eval {
						shared = mi.BNStates
						perturbBNStats(shared, seed)
					}
					mc := buildCompiledCase(t, tc.arch, batch, eval, tc.bnRecompute, shared)

					store := graph.NewParamStore()
					store.InitFromGraph(mi.Graph, rand.New(rand.NewSource(seed)), nn.KaimingInit)

					ex, err := graph.NewExecutor(mi.Graph, store)
					if err != nil {
						t.Fatal(err)
					}
					ex.UseArena(tensor.NewArena())
					ref, err := ex.Forward(modelFeeds(mi, seed+1))
					if err != nil {
						t.Fatalf("interpreted: %v", err)
					}

					prog, err := graph.Compile(mc.Graph, store, graph.CompileOptions{})
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					outs, err := prog.Forward(modelFeeds(mc, seed+1))
					if err != nil {
						t.Fatalf("compiled: %v", err)
					}

					if len(ref) != len(outs) {
						t.Fatalf("%d outputs vs %d", len(outs), len(ref))
					}
					for oi := range ref {
						wd, gd := ref[oi].Data(), outs[oi].Data()
						if len(wd) != len(gd) {
							t.Fatalf("output %d: %d elems vs %d", oi, len(gd), len(wd))
						}
						for i := range wd {
							if wd[i] != gd[i] {
								t.Fatalf("output %d elem %d: compiled %x vs interpreted %x",
									oi, i, gd[i], wd[i])
							}
						}
					}

					st := prog.Stats()
					if eval && st.Fused == 0 {
						t.Fatalf("eval-mode %s compiled with zero fused passes: %+v", tc.arch, st)
					}
					if st.SlabBytes > st.NoReuseBytes {
						t.Fatalf("slab %d exceeds no-reuse baseline %d", st.SlabBytes, st.NoReuseBytes)
					}
				})
			}
		}
	}
}

// TestCompiledPrefixMatchesFullBatch pins the property prefix execution
// rests on: for every bundled architecture, unsplit and 2×2-split at
// depth 0.5, an eval-mode program planned at B = 5 and run on the first
// n samples (n = 1…4) yields exactly the first n logit rows of the
// full-batch run.
func TestCompiledPrefixMatchesFullBatch(t *testing.T) {
	const batch = 5
	for _, arch := range models.Architectures() {
		for _, split := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/split=%v", arch, split), func(t *testing.T) {
				m := buildCompiledCase(t, arch, batch, true, false, nil)
				perturbBNStats(m.BNStates, 3)
				store := graph.NewParamStore()
				store.InitFromGraph(m.Graph, rand.New(rand.NewSource(3)), nn.KaimingInit)
				g := m.Graph
				if split {
					res, err := core.Split(g, core.Config{Depth: 0.5, NH: 2, NW: 2})
					if err != nil {
						t.Fatal(err)
					}
					g = res.Graph
				}
				prog, err := graph.Compile(g, store, graph.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				feeds := modelFeeds(m, 4)
				outs, err := prog.Forward(feeds)
				if err != nil {
					t.Fatal(err)
				}
				ref := append([]float32(nil), outs[1].Data()...)
				x, y := feeds["image"], feeds["labels"]
				img := x.Elems() / batch
				for n := 1; n < batch; n++ {
					s := x.Shape()
					outs, err := prog.Forward(graph.Feeds{
						"image":  tensor.Wrap(x.Data()[:n*img], n, s[1], s[2], s[3]),
						"labels": tensor.Wrap(y.Data()[:n], n),
					})
					if err != nil {
						t.Fatalf("n=%d: %v", n, err)
					}
					got := outs[1].Data()
					if len(got) != n*m.Classes {
						t.Fatalf("n=%d: %d logits, want %d", n, len(got), n*m.Classes)
					}
					for i, v := range got {
						if v != ref[i] {
							t.Fatalf("n=%d: logit %d = %x, want full-batch %x", n, i, v, ref[i])
						}
					}
				}
			})
		}
	}
}
