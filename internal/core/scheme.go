// Package core implements the paper's primary contribution: the
// Split-CNN transformation of §3. It contains
//
//   - the single-dimension split-scheme choice of §3.1: the input scheme
//     derived from an output scheme (Equation 3) over the [lb, ub]
//     bounds of tensor.Window1D (Equations 1 and 2), and the
//     boundary-choice policies;
//   - the stochastic output-scheme sampler of §3.3; and
//   - Split, a graph-to-graph rewriter that converts a regular CNN
//     computation graph into a Split-CNN: it selects a prefix region
//     covering the requested fraction of convolution layers, propagates
//     split schemes backwards through the region, and re-instantiates
//     every window-based operation once per spatial patch with
//     per-patch padding (Window1D.BandPad, Equation 5), joining patches
//     with a concat at the frontier.
//
// Note on the paper's begin-padding formula: §3.1 prints
// p_{i,b} = I_i + p_b − (O_i − 1)s, which is off by one stride — it
// yields padding in [s, k] and breaks the output-size identity.
// BandPad implements the derivation-consistent p_{i,b} = I_i + p_b −
// O_i·s (zero for the natural split when k = s, in [0, k−s] for any
// choice inside [lb, ub]); the property tests in scheme_test.go verify
// the identity |Y_i| = O_{i+1} − O_i, and tensor's FuzzWindowBand exact
// forward equivalence of any band.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"splitcnn/internal/tensor"
)

// Scheme is a partition of a spatial dimension of size L into parts;
// element i is the index of the first element of part i (the paper's
// (s_0, ..., s_{N-1}) with s_0 = 0).
type Scheme []int

// Equal reports whether two schemes are identical.
func (s Scheme) Equal(o Scheme) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// PartLen returns the length of part i given total dimension size l.
func (s Scheme) PartLen(i, l int) int {
	if i == len(s)-1 {
		return l - s[i]
	}
	return s[i+1] - s[i]
}

// Validate checks the scheme against dimension size l.
func (s Scheme) Validate(l int) error {
	if len(s) == 0 {
		return fmt.Errorf("empty scheme")
	}
	if s[0] != 0 {
		return fmt.Errorf("scheme %v must start at 0", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return fmt.Errorf("scheme %v not strictly increasing", s)
		}
	}
	if s[len(s)-1] >= l {
		return fmt.Errorf("scheme %v out of range for size %d", s, l)
	}
	return nil
}

// EqualScheme partitions a dimension of size l into n parts as evenly as
// possible — the paper's "good choice for load balance".
func EqualScheme(l, n int) (Scheme, error) {
	if n < 1 || n > l {
		return nil, fmt.Errorf("cannot split size %d into %d parts", l, n)
	}
	s := make(Scheme, n)
	for i := range s {
		s[i] = i * l / n
	}
	return s, s.Validate(l)
}

// StochasticScheme samples the §3.3 output scheme: s_0 = 0 and, for
// i > 0, s_i ~ DiscreteUniform(⌈(i−ω)L/N⌉, ⌊(i+ω)L/N⌋) with wiggle room
// ω ∈ [0, 0.5). Samples are clamped to keep the scheme strictly
// increasing on small dimensions.
func StochasticScheme(l, n int, omega float64, rng *rand.Rand) (Scheme, error) {
	if n < 1 || n > l {
		return nil, fmt.Errorf("cannot split size %d into %d parts", l, n)
	}
	if omega < 0 || omega >= 0.5 {
		return nil, fmt.Errorf("omega %v outside [0, 0.5)", omega)
	}
	s := make(Scheme, n)
	for i := 1; i < n; i++ {
		lo := int(math.Ceil((float64(i) - omega) * float64(l) / float64(n)))
		hi := int(math.Floor((float64(i) + omega) * float64(l) / float64(n)))
		lo = max(lo, s[i-1]+1)
		hi = min(hi, l-(n-i)) // leave room for the remaining parts
		if hi < lo {
			hi = lo
		}
		s[i] = lo + rng.Intn(hi-lo+1)
	}
	return s, s.Validate(l)
}

// BoundaryPolicy selects an input split point within (or, when the
// interval is empty because k < s, outside) [lb, ub].
type BoundaryPolicy int

// Boundary policies.
const (
	// PolicyMidpoint splits halfway between the bounds, balancing the
	// dropped receptive field between the two adjoining patches. For
	// stride-1 same-padded convolutions it maps a scheme to itself,
	// which is what makes deep multi-layer split regions (§3.2)
	// communication-free.
	PolicyMidpoint BoundaryPolicy = iota
	// PolicyLower always picks lb: the right patch keeps its full
	// receptive field; the left patch is end-padded.
	PolicyLower
	// PolicyUpper always picks ub: the left patch keeps its full
	// receptive field; the right patch is begin-padded.
	PolicyUpper
)

// String names the policy.
func (p BoundaryPolicy) String() string {
	switch p {
	case PolicyMidpoint:
		return "midpoint"
	case PolicyLower:
		return "lower"
	case PolicyUpper:
		return "upper"
	}
	return fmt.Sprintf("BoundaryPolicy(%d)", int(p))
}

// InputScheme computes the input split scheme I from an output split
// scheme O for a window operation over an input of length lin — the
// paper's ComputeInputSplitScheme (Equation 3) — as Split does for a
// tensor with one window consumer. For downsampling windows with k < s
// the [lb, ub] interval is empty; per the paper's footnote the split is
// still workable, and lb is used (negative padding, i.e. cropping,
// absorbs the difference).
func InputScheme(out Scheme, w tensor.Window1D, lin int, policy BoundaryPolicy) (Scheme, error) {
	lout := w.OutSize(lin)
	if err := out.Validate(lout); err != nil {
		return nil, fmt.Errorf("output scheme invalid for length %d: %w", lout, err)
	}
	cons := make([]boundaryConstraint, len(out)-1)
	if err := constrain(cons, out, w); err != nil {
		return nil, err
	}
	return negotiate(cons, lin, policy)
}
