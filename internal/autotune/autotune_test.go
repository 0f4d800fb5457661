package autotune_test

import (
	"testing"

	"splitcnn/internal/autotune"
	"splitcnn/internal/core"
	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// splitVGG is a mini VGG-19 under a 2x2, depth-0.5 split: the patch
// convolutions repeat a few geometries many times, with the asymmetric
// per-patch padding that tells corner patches apart.
func splitVGG(t *testing.T) *graph.Graph {
	t.Helper()
	m, err := models.Build("vgg19", models.Config{
		BatchSize: 2, Classes: 10, InputC: 3, InputH: 32, InputW: 32,
		WidthDiv: 16, BatchNorm: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.Split(m.Graph, core.Config{Depth: 0.5, NH: 2, NW: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sr.Graph
}

// TestSitesDedupInTopologicalOrder: Sites names each distinct conv
// geometry once, by its first node in topological order, with that
// node's input shape and output channels, and misses no conv node.
func TestSitesDedupInTopologicalOrder(t *testing.T) {
	g := splitVGG(t)
	nodes := g.OpNodes()
	pos := make(map[string]int, len(nodes))
	first := make(map[autotune.Key]string)
	convs := 0
	for i, n := range nodes {
		pos[n.Name] = i
		c, ok := n.Op.(*nn.Conv)
		if !ok {
			continue
		}
		convs++
		k := autotune.KeyOf(c.Params, n.Inputs[0].Shape, n.Shape.C())
		if _, seen := first[k]; !seen {
			first[k] = n.Name
		}
	}

	sites := autotune.Sites(g)
	if len(sites) != len(first) {
		t.Fatalf("%d sites, want %d distinct geometries", len(sites), len(first))
	}
	last := -1
	for _, s := range sites {
		k := s.Key()
		if first[k] != s.Name {
			t.Fatalf("site %s: key %+v first appears at node %q", s.Name, k, first[k])
		}
		delete(first, k)
		i := pos[s.Name]
		if i <= last {
			t.Fatalf("site %s at node %d follows node %d: not in topological order", s.Name, i, last)
		}
		last = i
		n := nodes[i]
		c := n.Op.(*nn.Conv)
		if s.Params != c.Params || !s.In.Equal(n.Inputs[0].Shape) || s.Cout != n.Shape.C() {
			t.Fatalf("site %s = %v %v→%d, node has %v %v→%d",
				s.Name, s.Params, s.In, s.Cout, c.Params, n.Inputs[0].Shape, n.Shape.C())
		}
	}

	// Eight split layers of four patches each plus eight whole layers
	// collapse to nine geometries: a layer's patches share one, and so
	// do equal-width neighbours. The first is the top-left quarter of
	// the image, zero-padded on every side (§3.1), with 64/16 outputs.
	if convs != 40 || len(sites) != 9 {
		t.Fatalf("%d conv nodes, %d sites; want 40, 9", convs, len(sites))
	}
	s0 := sites[0]
	if want := (tensor.Shape{2, 3, 16, 16}); s0.Name != "conv1.p0" || !s0.In.Equal(want) ||
		s0.Params.Pad != tensor.Symmetric(1) || s0.Cout != 4 {
		t.Fatalf("first site %s: %v pad %v→%d, want conv1.p0: %v pad %v→4",
			s0.Name, s0.In, s0.Params.Pad, s0.Cout, want, tensor.Symmetric(1))
	}
}

// TestKeyOfSeparatesBatchAndPadSides: keys of otherwise equal sites
// differ when only N or only one padding side differs, and equal sites
// share a key.
func TestKeyOfSeparatesBatchAndPadSides(t *testing.T) {
	p := tensor.ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: tensor.Symmetric(1)}
	x := tensor.Shape{2, 8, 16, 16}
	base := autotune.KeyOf(p, x, 4)
	if autotune.KeyOf(p, x.Clone(), 4) != base {
		t.Fatal("equal sites got different keys")
	}
	if autotune.KeyOf(p, tensor.Shape{3, 8, 16, 16}, 4) == base {
		t.Fatal("keys differing only in N collide")
	}
	for i := range 4 {
		q := p
		switch i {
		case 0:
			q.Pad.Top = 0
		case 1:
			q.Pad.Bottom = 0
		case 2:
			q.Pad.Left = 0
		case 3:
			q.Pad.Right = 0
		}
		if autotune.KeyOf(q, x, 4) == base {
			t.Fatalf("keys differing only in pad %v collide", q.Pad)
		}
	}
}
