package nn

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"splitcnn/internal/tensor"
)

// BNState holds the running statistics of one batch-normalization layer.
// States live outside the op so that independently built graphs (the
// unsplit network, split variants, per-minibatch stochastic rewrites)
// share them, exactly like trainable parameters do. The mutex guards
// running-statistic updates when executors of graphs sharing a state
// run concurrently.
type BNState struct {
	Name        string
	RunningMean []float64
	RunningVar  []float64
	Momentum    float64

	mu sync.Mutex
	// version counts updates; inference forwards use it to cache the
	// precast statistics between calls.
	version uint64
}

// update folds one forward's batch statistics into the running
// estimates.
func (s *BNState) update(st bnStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	for ch := 0; ch < st.c; ch++ {
		s.RunningMean[ch] = (1-s.Momentum)*s.RunningMean[ch] + s.Momentum*st.mean(ch)
		s.RunningVar[ch] = (1-s.Momentum)*s.RunningVar[ch] + s.Momentum*st.variance(ch)
	}
}

// Version returns the number of running-statistic updates so far. Callers that
// mutate RunningMean/RunningVar directly (snapshot restore) should
// call Invalidate instead of tracking versions themselves.
func (s *BNState) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Invalidate bumps the version so cached derived statistics are
// recomputed; call it after mutating the running statistics directly.
func (s *BNState) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
}

// NewBNState returns fresh running statistics for c channels.
func NewBNState(name string, c int) *BNState {
	s := &BNState{Name: name, RunningMean: make([]float64, c), RunningVar: make([]float64, c), Momentum: 0.1}
	for i := range s.RunningVar {
		s.RunningVar[i] = 1
	}
	return s
}

// BatchNorm normalizes each channel over (N, H, W). Graph inputs:
// x, gamma, beta.
//
// Two memory behaviours are supported, mirroring §6.3's adoption of
// In-Place Activated BatchNorm [Bulò et al.]:
//
//   - Recompute == false (default): the backward pass reads the stashed
//     input feature map, so BN contributes its input to the offload set —
//     this is what makes vanilla ResNet only ~55% offloadable (Fig. 1).
//   - Recompute == true: the backward pass reconstructs the normalized
//     activation from the layer *output* (x̂ = (y − β)/γ) and never needs
//     the input, trading a little arithmetic for offloadable bytes; the
//     paper reports this raises ResNet-18's offloadable fraction to 70%.
type BatchNorm struct {
	State     *BNState
	Eps       float64
	Recompute bool
	// Training selects batch statistics (true) or running statistics.
	Training bool
	// cache holds the precast inference statistics.
	cache bnEvalCache
}

// NewBatchNorm returns a train-mode batch normalization bound to state.
func NewBatchNorm(state *BNState) *BatchNorm {
	return &BatchNorm{State: state, Eps: 1e-5, Training: true}
}

// SetTraining implements graph.ModalOp: inference mode normalizes with
// the running statistics and never updates them.
func (b *BatchNorm) SetTraining(training bool) { b.Training = training }

// Kind implements graph.Op.
func (b *BatchNorm) Kind() string { return "batchnorm" }

// PatchwiseSafe reports that the op may be applied independently per
// spatial patch. Per-patch application computes statistics over the
// patch rather than the full feature map — precisely the semantic change
// Split-CNN embraces (§3).
func (b *BatchNorm) PatchwiseSafe() bool { return true }

// OutShape implements graph.Op.
func (b *BatchNorm) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("batchnorm: want x, gamma, beta")
	}
	x := in[0]
	if len(x) != 4 {
		return nil, fmt.Errorf("batchnorm: want NCHW input, got %v", x)
	}
	c := x.C()
	if len(in[1]) != 1 || in[1][0] != c || len(in[2]) != 1 || in[2][0] != c {
		return nil, fmt.Errorf("batchnorm: gamma %v / beta %v incompatible with %v", in[1], in[2], x)
	}
	return x.Clone(), nil
}

// ForwardInto implements graph.Op.
func (b *BatchNorm) ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	return bnForward(a, dst, in, b.State, b.Eps, b.Training, &b.cache, -1)
}

// CanRunInplace implements graph.InplaceOp: only the inference affine
// is folded; training-mode BN stays a regular step so the batch
// statistics and running-estimate update remain a single visible op.
// (BatchNorm deliberately does NOT implement InPlaceEligible — that
// marker feeds the hmms storage-sharing planner, whose plans for BN
// layers are pinned by existing tests; the compiler treats the marker
// as a veto when present, not a requirement.)
func (b *BatchNorm) CanRunInplace() bool { return !b.Training }

// ForwardInplace implements graph.InplaceOp.
func (b *BatchNorm) ForwardInplace(x *tensor.Tensor, in []*tensor.Tensor) {
	bnForward(nil, x, in, b.State, b.Eps, b.Training, &b.cache, -1)
}

// Backward implements graph.Op. x̂ comes either from the stashed input
// or, in the recompute variant, from the output.
func (b *BatchNorm) Backward(a *tensor.Arena, gradOut *tensor.Tensor, in []*tensor.Tensor, _ []tensor.Shape, out *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	gamma, beta := in[1], in[2]
	s := gradOut.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	blk, st := bnSaved(a, stash, c, b.State, b.Eps)
	xhat := a.GetRaw(s...)
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			dst := xhat.Data()[base : base+plane]
			if b.Recompute {
				g, bt := gamma.Data()[ch], beta.Data()[ch]
				if g == 0 {
					g = 1e-12 // guard: γ=0 loses information; avoid Inf
				}
				for i, v := range out.Data()[base : base+plane] {
					dst[i] = (v - bt) / g
				}
			} else {
				m, is := st.m32()[ch], st.is32()[ch]
				for i, v := range in[0].Data()[base : base+plane] {
					dst[i] = (v - m) * is
				}
			}
		}
	}
	bnBackward(a, gradOut, xhat, gamma, st, b.Eps, b.Training, gin)
	a.Put(xhat)
	a.Put(blk)
}

// NeedsInput implements graph.Op: the input feature map is stashed only
// in the non-recompute variant; gamma and beta are always needed.
func (b *BatchNorm) NeedsInput(i int) bool {
	if i == 0 {
		return !b.Recompute
	}
	return true
}

// NeedsOutput implements graph.Op: the recompute variant reconstructs
// x̂ from the output instead.
func (b *BatchNorm) NeedsOutput() bool { return b.Recompute }

// FLOPs implements graph.Op: roughly 10 ops per element (two reduction
// passes plus the normalization) — a thoroughly memory-bound layer.
func (b *BatchNorm) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return 10 * int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op.
func (b *BatchNorm) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// bnStats views one forward's per-channel statistics, kept in a float32
// arena tensor of 6·c words so they recycle like any activation: words
// [0,c) hold float32(mean) and [c,2c) float32(invStd) — the constants
// bnApply consumes — followed by every channel's float64 mean and then
// variance, two words apiece and bit-exact, because the running-estimate
// update and the backward pass need them at full precision.
type bnStats struct {
	c int
	w []float32
}

func (s bnStats) m32() []float32  { return s.w[:s.c] }
func (s bnStats) is32() []float32 { return s.w[s.c : 2*s.c] }

func (s bnStats) f64(slot, ch int) float64 {
	w := s.w[2*(s.c+slot*s.c+ch):]
	return math.Float64frombits(uint64(math.Float32bits(w[0])) | uint64(math.Float32bits(w[1]))<<32)
}

func (s bnStats) mean(ch int) float64     { return s.f64(0, ch) }
func (s bnStats) variance(ch int) float64 { return s.f64(1, ch) }

// invStd is 1/√(σ²+ε) at full precision.
func (s bnStats) invStd(ch int, eps float64) float64 {
	return 1 / math.Sqrt(s.variance(ch)+eps)
}

// set records channel ch's statistics.
func (s bnStats) set(ch int, mean, variance, eps float64) {
	for slot, v := range [2]float64{mean, variance} {
		w, b := s.w[2*(s.c+slot*s.c+ch):], math.Float64bits(v)
		w[0], w[1] = math.Float32frombits(uint32(b)), math.Float32frombits(uint32(b>>32))
	}
	s.w[ch] = float32(mean)
	s.w[s.c+ch] = float32(1 / math.Sqrt(variance+eps))
}

// newBNStats draws an unset statistics block for c channels from a.
func newBNStats(a *tensor.Arena, c int) (*tensor.Tensor, bnStats) {
	blk := a.GetRaw(6 * c)
	return blk, bnStats{c, blk.Data()}
}

// bnBatchStats computes training-mode batch statistics — float64
// accumulation, variance clamped at zero — into a block drawn from a,
// and folds them into the running estimates.
func bnBatchStats(a *tensor.Arena, x *tensor.Tensor, state *BNState, eps float64) (*tensor.Tensor, bnStats) {
	s := x.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	cnt := float64(n * plane)
	blk, st := newBNStats(a, c)
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			for _, v := range x.Data()[base : base+plane] {
				f := float64(v)
				sum += f
				sq += f * f
			}
		}
		m := sum / cnt
		v := sq/cnt - m*m
		if v < 0 {
			v = 0
		}
		st.set(ch, m, v, eps)
	}
	state.update(st)
	return blk, st
}

// bnSaved returns the statistics the forward pass normalized with: the
// training-mode stash, or (inference mode, nil stash) a block rebuilt
// from the running estimates. Either way the caller returns the block
// to a.
func bnSaved(a *tensor.Arena, stash any, c int, state *BNState, eps float64) (*tensor.Tensor, bnStats) {
	if blk, ok := stash.(*tensor.Tensor); ok {
		return blk, bnStats{c, blk.Data()}
	}
	blk, st := newBNStats(a, c)
	for ch := 0; ch < c; ch++ {
		st.set(ch, state.RunningMean[ch], state.RunningVar[ch], eps)
	}
	return blk, st
}

// bnEval is an immutable set of precast inference constants: m32 =
// float32(running mean), is32 = float32(1/√(running var+ε)) — the same
// cast points as bnStats.set.
type bnEval struct {
	version   uint64
	eps       float64
	m32, is32 []float32
}

// bnEvalCache keeps the latest bnEval so a warmed inference forward
// neither allocates nor recomputes the square roots. Swapping whole
// snapshots atomically keeps concurrent inference forwards over one op
// (distserve.ShardEval) race-free.
type bnEvalCache struct{ p atomic.Pointer[bnEval] }

// get returns constants matching the state's version, the epsilon and
// the channel count, rebuilding them if any changed since the last call.
func (c *bnEvalCache) get(state *BNState, eps float64) *bnEval {
	v, n := state.Version(), len(state.RunningMean)
	if e := c.p.Load(); e != nil && e.version == v && e.eps == eps && len(e.m32) == n {
		return e
	}
	e := &bnEval{version: v, eps: eps, m32: make([]float32, n), is32: make([]float32, n)}
	for ch := 0; ch < n; ch++ {
		e.m32[ch] = float32(state.RunningMean[ch])
		e.is32[ch] = float32(1 / math.Sqrt(state.RunningVar[ch]+eps))
	}
	c.p.Store(e)
	return e
}

// bnForward is the forward pass of the whole BN family: resolve the
// per-channel constants for the mode — cached running statistics in
// inference, fresh batch statistics (stashed for Backward) in training —
// and apply the affine with an optional leaky ReLU.
func bnForward(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor, state *BNState, eps float64, training bool, cache *bnEvalCache, slope float32) any {
	if !training {
		e := cache.get(state, eps)
		bnApply(dst, in[0], in[1], in[2], e.m32, e.is32, slope)
		return nil
	}
	blk, st := bnBatchStats(a, in[0], state, eps)
	bnApply(dst, in[0], in[1], in[2], st.m32(), st.is32(), slope)
	return blk
}

// bnApply runs the normalization affine (and optional leaky ReLU with
// the given slope; slope < 0 means no activation) writing dst, which
// may alias x: each element is read once before it is written.
func bnApply(dst, x, gamma, beta *tensor.Tensor, m32, is32 []float32, slope float32) {
	s := x.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	for bi := 0; bi < n; bi++ {
		for ch := 0; ch < c; ch++ {
			base := (bi*c + ch) * plane
			g, bt := gamma.Data()[ch], beta.Data()[ch]
			m, is := m32[ch], is32[ch]
			src := x.Data()[base : base+plane]
			out := dst.Data()[base : base+plane]
			if slope < 0 {
				for i, v := range src {
					out[i] = (v-m)*is*g + bt
				}
			} else {
				for i, v := range src {
					z := (v-m)*is*g + bt
					if z < 0 {
						z *= slope
					}
					out[i] = z
				}
			}
		}
	}
}

// bnBackward is the shared tail of the BN family's backward pass: given
// gz, the gradient reaching the affine output, and x̂, it writes the
// input, gamma and beta gradients into gin[0..2]. Sums accumulate in
// float64, per plane and then across the batch.
func bnBackward(a *tensor.Arena, gz, xhat, gamma *tensor.Tensor, st bnStats, eps float64, training bool, gin []*tensor.Tensor) {
	s := gz.Shape()
	n, c, plane := s.N(), s.C(), s.H()*s.W()
	cnt := float64(n * plane)
	gradX, gGamma, gBeta := a.GetRaw(s...), a.GetRaw(c), a.GetRaw(c)
	for ch := 0; ch < c; ch++ {
		var sumG, sumGX float64 // Σ gz and Σ gz·x̂ over the channel
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			xsrc := xhat.Data()[base : base+plane]
			var sg, sgx float64
			for i, g := range gz.Data()[base : base+plane] {
				sg += float64(g)
				sgx += float64(g) * float64(xsrc[i])
			}
			sumG += sg
			sumGX += sgx
		}
		gGamma.Data()[ch] = float32(sumGX)
		gBeta.Data()[ch] = float32(sumG)

		g, is := float64(gamma.Data()[ch]), st.invStd(ch, eps)
		mG, mGX := sumG/cnt, sumGX/cnt
		for bi := 0; bi < n; bi++ {
			base := (bi*c + ch) * plane
			gsrc := gz.Data()[base : base+plane]
			xsrc := xhat.Data()[base : base+plane]
			dst := gradX.Data()[base : base+plane]
			if training {
				for i, gv := range gsrc {
					dst[i] = float32(g * is * (float64(gv) - mG - float64(xsrc[i])*mGX))
				}
			} else {
				for i, gv := range gsrc {
					dst[i] = float32(g * is * float64(gv))
				}
			}
		}
	}
	gin[0], gin[1], gin[2] = gradX, gGamma, gBeta
}
