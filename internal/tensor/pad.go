package tensor

import "fmt"

// Pad2D describes asymmetric spatial zero-padding for NCHW tensors.
// Split-CNN fundamentally relies on asymmetric padding: each interior
// patch of a split operation receives begin/end padding computed from
// the split scheme (§3.1), so top/bottom and left/right are independent.
type Pad2D struct {
	Top, Bottom, Left, Right int
}

// Symmetric returns padding of p on every side.
func Symmetric(p int) Pad2D { return Pad2D{p, p, p, p} }

// String renders the padding as (t,b,l,r).
func (p Pad2D) String() string {
	return fmt.Sprintf("(t=%d,b=%d,l=%d,r=%d)", p.Top, p.Bottom, p.Left, p.Right)
}
