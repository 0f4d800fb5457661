// Package autotune enumerates the distinct convolution sites of a graph:
// each geometry (window, input shape, output channels) once, in
// topological order, with the comparable Key that identifies it. Split
// graphs repeat one patch geometry across many nodes, so per-site work
// such as a kernel probe runs once per geometry rather than once per
// node.
//
// Every site runs the same kernel, tensor.Conv2DInto. The package name
// stays until the benchmark runner, which imports it, is next changed.
package autotune

import (
	"splitcnn/internal/graph"
	"splitcnn/internal/tensor"
)

// Key identifies a convolution workload: the full window geometry plus
// the concrete input shape and output channel count. Batch size is part
// of it via N. It is a comparable struct, so it serves directly as a
// map key.
type Key struct {
	KH, KW, SH, SW         int
	PadT, PadB, PadL, PadR int
	N, C, H, W             int
	Cout                   int
}

// KeyOf builds the key of one convolution call site.
func KeyOf(p tensor.ConvParams, x tensor.Shape, cout int) Key {
	return Key{
		KH: p.KH, KW: p.KW, SH: p.SH, SW: p.SW,
		PadT: p.Pad.Top, PadB: p.Pad.Bottom, PadL: p.Pad.Left, PadR: p.Pad.Right,
		N: x.N(), C: x.C(), H: x.H(), W: x.W(),
		Cout: cout,
	}
}

// Site is one distinct convolution call site of a graph.
type Site struct {
	Name   string
	Params tensor.ConvParams
	In     tensor.Shape
	Cout   int
}

// Key returns the site's key.
func (s Site) Key() Key { return KeyOf(s.Params, s.In, s.Cout) }

// Sites extracts the convolution sites of a graph in topological
// order, deduplicated by key: the first node of each geometry names
// its site.
func Sites(g *graph.Graph) []Site {
	seen := make(map[Key]bool)
	var out []Site
	for _, n := range g.OpNodes() {
		if n.Op.Kind() != "conv" || len(n.Inputs) == 0 {
			continue
		}
		c, ok := n.Op.(interface{ Window() tensor.ConvParams })
		if !ok {
			continue
		}
		s := Site{Name: n.Name, Params: c.Window(), In: n.Inputs[0].Shape.Clone(), Cout: n.Shape.C()}
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}
