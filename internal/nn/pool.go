package nn

import (
	"fmt"

	"splitcnn/internal/graph"
	"splitcnn/internal/tensor"
)

// MaxPool is a max-pooling op. Like cuDNN, its backward pass reads the
// input feature map (we recompute the argmax rather than stash index
// buffers), so pooling layers produce intermediate results that must be
// kept or offloaded — the very layers Figure 1 shows never have time to
// offload themselves.
type MaxPool struct {
	Params tensor.ConvParams
}

// NewMaxPool returns a max pool with square kernel k and stride s.
func NewMaxPool(k, s int) *MaxPool {
	return &MaxPool{Params: tensor.ConvParams{KH: k, KW: k, SH: s, SW: s}}
}

// Kind implements graph.Op.
func (m *MaxPool) Kind() string { return "maxpool" }

// Window exposes the window geometry to the Split-CNN transform.
func (m *MaxPool) Window() tensor.ConvParams { return m.Params }

// WithPad returns a copy with different padding.
func (m *MaxPool) WithPad(p tensor.Pad2D) graph.Op {
	cp := *m
	cp.Params.Pad = p
	return &cp
}

// OutShape implements graph.Op.
func (m *MaxPool) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	return poolOutShape("maxpool", m.Params, in)
}

// ForwardInto implements graph.Op. The stash is the argmax tensor, so
// the backward pass scatters directly instead of re-running the window
// search.
func (m *MaxPool) ForwardInto(a *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	arg := a.GetRaw(dst.Shape()...)
	tensor.MaxPool2DInto(dst, arg, in[0], m.Params)
	return arg
}

// Backward implements graph.Op.
func (m *MaxPool) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, stash any, gin []*tensor.Tensor) {
	arg := stash.(*tensor.Tensor)
	s := inShapes[0]
	gin[0] = tensor.MaxPool2DBackwardArena(a, gradOut, arg, m.Params, s.N(), s.C(), s.H(), s.W())
	a.Put(arg)
}

// NeedsInput implements graph.Op.
func (m *MaxPool) NeedsInput(i int) bool { return true }

// NeedsOutput implements graph.Op.
func (m *MaxPool) NeedsOutput() bool { return false }

// FLOPs implements graph.Op: one compare per window element.
func (m *MaxPool) FLOPs(in []tensor.Shape, out tensor.Shape) int64 {
	return int64(out.Elems()) * int64(m.Params.KH*m.Params.KW)
}

// WorkspaceBytes implements graph.Op.
func (m *MaxPool) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// AvgPool is an average-pooling op (count_include_pad semantics).
type AvgPool struct {
	Params tensor.ConvParams
}

// NewAvgPool returns an average pool with square kernel k and stride s.
func NewAvgPool(k, s int) *AvgPool {
	return &AvgPool{Params: tensor.ConvParams{KH: k, KW: k, SH: s, SW: s}}
}

// Kind implements graph.Op.
func (a *AvgPool) Kind() string { return "avgpool" }

// Window exposes the window geometry to the Split-CNN transform.
func (a *AvgPool) Window() tensor.ConvParams { return a.Params }

// WithPad returns a copy with different padding.
func (a *AvgPool) WithPad(p tensor.Pad2D) graph.Op {
	cp := *a
	cp.Params.Pad = p
	return &cp
}

// OutShape implements graph.Op.
func (a *AvgPool) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	return poolOutShape("avgpool", a.Params, in)
}

// ForwardInto implements graph.Op.
func (ap *AvgPool) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	tensor.AvgPool2DInto(dst, in[0], ap.Params)
	return nil
}

// Backward implements graph.Op. Average pooling is linear, so its
// adjoint needs neither input nor output — only the input's shape.
func (ap *AvgPool) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	s := inShapes[0]
	gin[0] = tensor.AvgPool2DBackwardArena(a, gradOut, ap.Params, s.N(), s.C(), s.H(), s.W())
}

// NeedsInput implements graph.Op.
func (a *AvgPool) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (a *AvgPool) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (a *AvgPool) FLOPs(in []tensor.Shape, out tensor.Shape) int64 {
	return int64(out.Elems()) * int64(a.Params.KH*a.Params.KW)
}

// WorkspaceBytes implements graph.Op.
func (a *AvgPool) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

// GlobalAvgPool averages each channel plane to a single value,
// producing [N, C, 1, 1]. It is the canonical head of the ResNet family.
type GlobalAvgPool struct{}

// Kind implements graph.Op.
func (GlobalAvgPool) Kind() string { return "gap" }

// OutShape implements graph.Op.
func (GlobalAvgPool) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 || len(in[0]) != 4 {
		return nil, fmt.Errorf("gap: want one NCHW input, got %v", in)
	}
	return tensor.Shape{in[0].N(), in[0].C(), 1, 1}, nil
}

// ForwardInto implements graph.Op.
func (GlobalAvgPool) ForwardInto(_ *tensor.Arena, dst *tensor.Tensor, in []*tensor.Tensor) any {
	s := in[0].Shape()
	p := tensor.ConvParams{KH: s.H(), KW: s.W(), SH: s.H(), SW: s.W()}
	tensor.AvgPool2DInto(dst, in[0], p)
	return nil
}

// Backward implements graph.Op.
func (GlobalAvgPool) Backward(a *tensor.Arena, gradOut *tensor.Tensor, _ []*tensor.Tensor, inShapes []tensor.Shape, _ *tensor.Tensor, _ any, gin []*tensor.Tensor) {
	s := inShapes[0]
	p := tensor.ConvParams{KH: s.H(), KW: s.W(), SH: s.H(), SW: s.W()}
	gin[0] = tensor.AvgPool2DBackwardArena(a, gradOut, p, s.N(), s.C(), s.H(), s.W())
}

// NeedsInput implements graph.Op.
func (GlobalAvgPool) NeedsInput(int) bool { return false }

// NeedsOutput implements graph.Op.
func (GlobalAvgPool) NeedsOutput() bool { return false }

// FLOPs implements graph.Op.
func (GlobalAvgPool) FLOPs(in []tensor.Shape, _ tensor.Shape) int64 {
	return int64(in[0].Elems())
}

// WorkspaceBytes implements graph.Op.
func (GlobalAvgPool) WorkspaceBytes([]tensor.Shape, tensor.Shape) int64 { return 0 }

func poolOutShape(kind string, p tensor.ConvParams, in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 1 || len(in[0]) != 4 {
		return nil, fmt.Errorf("%s: want one NCHW input, got %v", kind, in)
	}
	x := in[0]
	oh, ow := p.OutSize(x.H(), x.W())
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%s: output size (%d,%d) for input %v", kind, oh, ow, x)
	}
	return tensor.Shape{x.N(), x.C(), oh, ow}, nil
}
