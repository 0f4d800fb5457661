// Package serve is the inference-serving subsystem: a model registry
// that instantiates architectures behind warmed compiled programs, a
// dynamic micro-batching scheduler that coalesces concurrent
// single-image requests, and an HTTP front end with admission control,
// per-request deadlines, graceful draining and a metrics surface.
//
// The serving path runs graph.Compile's static program in inference
// mode (graph.SetTraining(false)): dropout is the identity and batch
// normalization uses the running statistics restored from a weight
// snapshot; a batch of n runs the first n samples of the MaxBatch plan.
// Every op is then per-sample independent and the kernels reduce in a
// batch-position-invariant order, so a request's logits are bit-identical
// whether it runs alone or coalesced into a larger batch — the property
// that makes transparent dynamic batching sound.
package serve

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync/atomic"

	"splitcnn/internal/graph"
	"splitcnn/internal/memobs"
	"splitcnn/internal/modelfile"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/snapshot"
	"splitcnn/internal/tensor"
)

// Spec describes one model to load into the registry.
type Spec struct {
	// Name keys the instance in the registry (and in predict requests).
	Name string
	// ModelFile, when set, loads a modelfile-DSL description from disk;
	// ModelText does the same from an in-memory string (tests, -smoke).
	// Otherwise Arch selects a built-in architecture configured by Model.
	ModelFile string
	ModelText string
	Arch      string
	// Model configures built-in architectures (input geometry, classes,
	// width divisor, BN options). BatchSize and Eval are overridden.
	Model models.Config
	// Snapshot, when set, restores trained weights and BN running
	// statistics; otherwise the instance serves deterministic random
	// initialization (useful for load testing).
	Snapshot string
	// MaxBatch is the executor batch size and the batcher's coalescing
	// cap (default 8).
	MaxBatch int
}

// Instance is one servable model: an inference-mode graph at the
// serving batch size lowered to a compiled program (inference rewrites
// plus a fixed-offset memory plan in one pre-sized slab), and its
// parameters.
// Run is not safe for concurrent use — the batcher's dispatcher is the
// sole caller.
type Instance struct {
	Name     string
	Classes  int
	C, H, W  int
	MaxBatch int

	prog   *graph.CompiledProgram
	batchX *tensor.Tensor
	feeds  []graph.Feeds // feeds[n]: the first n images of batchX
	out    [][]float32   // reused per-slot output buffers

	// peaks[n] is the peak slab bytes one step of the pass over n
	// images references, read from the compiled plan once at load.
	// lastN is the live batch of the latest completed forward, maxN the
	// largest one run so far.
	peaks       []int64
	lastN, maxN atomic.Int32
}

// ImageLen returns the expected flattened image length (C*H*W).
func (in *Instance) ImageLen() int { return in.C * in.H * in.W }

// Timeline returns the memory timeline of the latest completed forward:
// its pass's static table, the peak of the largest batch run so far,
// and the scratch arena's high water. Safe to call while Run executes:
// Load built every pass, so StepMem only reads.
func (in *Instance) Timeline() *memobs.MemTimeline {
	// Run stores maxN before lastN, so the high water covers the pass.
	return &memobs.MemTimeline{
		Samples:           in.prog.StepMem(int(in.lastN.Load())),
		PlannedSlabBytes:  in.prog.SlabBytes(),
		MeasuredHighWater: in.peaks[in.maxN.Load()],
		ScratchHighWater:  in.prog.Arena().Stats().HighWaterBytes,
	}
}

// passPeak returns the peak slab bytes of the pass over n images.
func (in *Instance) passPeak(n int) int64 { return in.peaks[n] }

// ArenaStats snapshots the instance's kernel-scratch arena counters,
// for the server's aggregate arena.* occupancy gauges — activations
// live in the static slab and never touch an arena.
func (in *Instance) ArenaStats() tensor.ArenaStats { return in.prog.Arena().Stats() }

// Materialize builds the inference-mode model described by spec —
// graph construction, weight initialization (or snapshot restore),
// eval-mode flip, logits-only output — without
// committing to an execution strategy. Load wraps it in a batching
// Instance; the distributed serving layer (internal/distserve) calls it
// directly so router and shard workers materialize the identical model.
func Materialize(spec Spec) (*models.Model, *graph.ParamStore, error) {
	maxBatch := spec.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 8
	}
	var m *models.Model
	var err error
	switch {
	case spec.ModelText != "":
		m, err = modelfile.ParseString(spec.ModelText, maxBatch)
	case spec.ModelFile != "":
		var f *os.File
		if f, err = os.Open(spec.ModelFile); err == nil {
			m, err = modelfile.Parse(f, maxBatch)
			f.Close()
		}
	case spec.Arch != "":
		cfg := spec.Model
		cfg.BatchSize = maxBatch
		cfg.Eval = false // flipped below via SetTraining, uniformly
		m, err = models.Build(spec.Arch, cfg)
	default:
		err = fmt.Errorf("spec %q: one of ModelText, ModelFile or Arch required", spec.Name)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("serve: load %q: %w", spec.Name, err)
	}

	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rand.New(rand.NewSource(1)), nn.KaimingInit)
	if spec.Snapshot != "" {
		if err := snapshot.LoadFile(spec.Snapshot, store, m.BNStates); err != nil {
			return nil, nil, fmt.Errorf("serve: load %q: %w", spec.Name, err)
		}
	}

	// Inference mode, logits as the only graph output.
	m.Graph.SetTraining(false)
	m.Graph.SetOutput(m.Logits)

	return m, store, nil
}

// Load builds the instance described by spec: construct the graph,
// initialize (or restore) the weights, flip to inference mode, compile,
// and warm the scratch arena with one single-image forward.
func Load(spec Spec) (*Instance, error) {
	maxBatch := spec.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 8
	}
	m, store, err := Materialize(spec)
	if err != nil {
		return nil, err
	}

	prog, err := graph.Compile(m.Graph, store, graph.CompileOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve: load %q: %w", spec.Name, err)
	}

	s := m.Input.Shape
	inst := &Instance{
		Name:     spec.Name,
		Classes:  m.Classes,
		C:        s.C(),
		H:        s.H(),
		W:        s.W(),
		MaxBatch: maxBatch,
		prog:     prog,
		batchX:   tensor.New(maxBatch, s.C(), s.H(), s.W()),
		feeds:    make([]graph.Feeds, maxBatch+1),
		out:      make([][]float32, maxBatch),
		peaks:    make([]int64, maxBatch+1),
	}
	for n := 1; n <= maxBatch; n++ {
		inst.feeds[n] = graph.Feeds{
			"image": tensor.Wrap(inst.batchX.Data()[:n*inst.ImageLen()], n, s.C(), s.H(), s.W()),
		}
		inst.out[n-1] = make([]float32, m.Classes)
		for _, st := range prog.StepMem(n) {
			inst.peaks[n] = max(inst.peaks[n], st.RefBytes)
		}
	}
	// Warm the scratch arena: the first forward populates the pool;
	// later batches of a size already seen recycle through it.
	if _, err := inst.Run(make([][]float32, 1)); err != nil {
		return nil, fmt.Errorf("serve: warmup %q: %w", spec.Name, err)
	}
	return inst, nil
}

// Run executes one coalesced batch of up to MaxBatch flattened C*H*W
// images (nil entries are zero images), computing only those. It returns
// one logits slice per image, owned by the instance and valid until the
// next Run call.
func (in *Instance) Run(imgs [][]float32) ([][]float32, error) {
	if len(imgs) == 0 || len(imgs) > in.MaxBatch {
		return nil, fmt.Errorf("serve: batch size %d out of range [1, %d]", len(imgs), in.MaxBatch)
	}
	want := in.ImageLen()
	xd := in.batchX.Data()
	for i, img := range imgs {
		dst := xd[i*want : (i+1)*want]
		switch {
		case img == nil:
			clear(dst)
		case len(img) != want:
			return nil, fmt.Errorf("serve: image %d has %d values, want %d", i, len(img), want)
		default:
			copy(dst, img)
		}
	}
	n := len(imgs)
	outs, err := in.prog.Forward(in.feeds[n])
	if err != nil {
		return nil, err
	}
	if int32(n) > in.maxN.Load() {
		in.maxN.Store(int32(n))
	}
	in.lastN.Store(int32(n))
	ld := outs[0].Data()
	res := in.out[:n]
	for i := range res {
		copy(res[i], ld[i*in.Classes:(i+1)*in.Classes])
	}
	return res, nil
}

// Registry maps model names to loaded instances. It is immutable after
// construction, so lookups need no locking.
type Registry struct {
	byName map[string]*Instance
	names  []string
}

// NewRegistry loads every spec and returns the registry. The first spec
// is the default model for requests that name none.
func NewRegistry(specs ...Spec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: registry needs at least one model")
	}
	r := &Registry{byName: make(map[string]*Instance, len(specs))}
	for _, spec := range specs {
		if spec.Name == "" {
			spec.Name = "default"
		}
		if _, dup := r.byName[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", spec.Name)
		}
		inst, err := Load(spec)
		if err != nil {
			return nil, err
		}
		r.byName[spec.Name] = inst
		r.names = append(r.names, spec.Name)
	}
	return r, nil
}

// Lookup returns the named instance; an empty name selects the default
// (first-loaded) model.
func (r *Registry) Lookup(name string) (*Instance, error) {
	if name == "" {
		return r.byName[r.names[0]], nil
	}
	if in, ok := r.byName[name]; ok {
		return in, nil
	}
	sorted := append([]string(nil), r.names...)
	sort.Strings(sorted)
	return nil, fmt.Errorf("unknown model %q (have %s)", name, strings.Join(sorted, ", "))
}

// Names returns the model names in load order.
func (r *Registry) Names() []string { return r.names }
