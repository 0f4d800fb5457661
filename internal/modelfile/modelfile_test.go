package modelfile_test

import (
	"math/rand"
	"strings"
	"testing"

	"splitcnn/internal/core"
	"splitcnn/internal/graph"
	"splitcnn/internal/modelfile"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

const sample = `
# a small VGG-ish network
input 3 32 32
conv 16 k3 s1 p1
bn
relu
conv 16
bnrelu
pool max k2 s2
conv 32 k3
relu
pool avg
gap
flatten
linear 10
`

func TestParseSample(t *testing.T) {
	m, err := modelfile.ParseString(sample, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Classes != 10 {
		t.Fatalf("classes %d", m.Classes)
	}
	if len(m.ConvNames) != 3 {
		t.Fatalf("convs %v", m.ConvNames)
	}
	if !m.Input.Shape.Equal(tensor.Shape{4, 3, 32, 32}) {
		t.Fatalf("input %v", m.Input.Shape)
	}
	if !m.Logits.Shape.Equal(tensor.Shape{4, 10}) {
		t.Fatalf("logits %v", m.Logits.Shape)
	}
	// The parsed model must run forward/backward.
	rng := rand.New(rand.NewSource(1))
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rng, nn.KaimingInit)
	ex, err := graph.NewExecutor(m.Graph, store)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 32, 32)
	x.RandNormal(rng, 1)
	labels := tensor.FromSlice([]float32{0, 1, 2, 3}, 4)
	if _, err := ex.Forward(graph.Feeds{"image": x, "labels": labels}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Backward(); err != nil {
		t.Fatal(err)
	}
}

func TestParsedModelSplits(t *testing.T) {
	m, err := modelfile.ParseString(sample, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Split(m.Graph, core.Config{Depth: 1, NH: 2, NW: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitConvs == 0 {
		t.Fatal("nothing split")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"no input first", "conv 8\n"},
		{"duplicate input", "input 3 8 8\ninput 3 8 8\n"},
		{"bad input dims", "input 3 8\n"},
		{"bad conv channels", "input 3 8 8\nconv zero\n"},
		{"unknown conv option", "input 3 8 8\nconv 8 q7\n"},
		{"bad pool kind", "input 3 8 8\npool median\n"},
		{"bad dropout", "input 3 8 8\ndropout 1.5\n"},
		{"linear before flatten", "input 3 8 8\nlinear 10\n"},
		{"unknown directive", "input 3 8 8\nwarp 9\n"},
		{"no classifier", "input 3 8 8\nconv 8\n"},
		{"shape error", "input 3 8 8\nconv 4 k9 p0\nflatten\nlinear 4\n"},
		{"bn after flatten", "input 3 8 8\nflatten\nbn\n"},
		{"huge input channels", "input 100000 8 8\nbn\nflatten\nlinear 2\n"},
		{"huge conv channels", "input 3 8 8\nconv 100000\nbn\nflatten\nlinear 2\n"},
		{"huge padding", "input 3 8 8\nconv 4 p100000\nflatten\nlinear 2\n"},
		{"huge width", "input 3 8 8\nflatten\nlinear 100000\n"},
	}
	for _, c := range cases {
		if _, err := modelfile.ParseString(c.src, 2); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "  # leading comment\n\ninput 1 8 8   # trailing\n\tconv 4 k3\nflatten\nlinear 2\n"
	m, err := modelfile.ParseString(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Classes != 2 {
		t.Fatalf("classes %d", m.Classes)
	}
}

func TestParseReaderError(t *testing.T) {
	if _, err := modelfile.Parse(strings.NewReader("input 3 8 8\n"), 0); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func TestZeroKernelRejectedNotPanic(t *testing.T) {
	for _, src := range []string{
		"input 3 8 8\nconv 8 k0\nflatten\nlinear 2\n",
		"input 3 8 8\nconv 8 s0\nflatten\nlinear 2\n",
		"input 3 8 8\npool max k0\nflatten\nlinear 2\n",
	} {
		if _, err := modelfile.ParseString(src, 1); err == nil {
			t.Fatalf("accepted: %q", src)
		}
	}
}

// FuzzModelfile: no description panics the parser, and one it accepts
// builds a graph whose input and logits carry the batch and the class
// count and whose one output is the loss.
func FuzzModelfile(f *testing.F) {
	for _, src := range []string{
		sample,
		// The package doc's example.
		"input 3 32 32\nconv 64 k3 s1 p1\nbn\nrelu\nconv 64 k3 s1 p1\nbn\nrelu\npool max k2 s2\ngap\nflatten\ndropout 0.5\nlinear 10\n",
		// README's custom model and the serving tests' fixture.
		"input 3 64 64\nconv 32 k5 p2\nbnrelu\npool max k2 s2\nconv 64 k3\nrelu\nflatten\nlinear 100\n",
		"input 3 6 6\nconv 4 k3 s1 p1\nbn\nrelu\npool max k2 s2\nflatten\ndropout 0.3\nlinear 5\n",
		"  # leading comment\n\ninput 1 8 8   # trailing\n\tconv 4 k3\nflatten\nlinear 2\n",
		"input 3 8 8\nconv 8 k0\nflatten\nlinear 2\n",
		"input 3 8 8\nconv 4 k9 p0\nflatten\nlinear 4\n",
	} {
		f.Add(src, uint8(2))
	}
	f.Fuzz(func(t *testing.T, src string, batch uint8) {
		b := int(batch%4) + 1
		m, err := modelfile.ParseString(src, b)
		if err != nil {
			return
		}
		if m.Input.Shape[0] != b || !m.Logits.Shape.Equal(tensor.Shape{b, m.Classes}) {
			t.Fatalf("input %v, logits %v for batch %d and %d classes", m.Input.Shape, m.Logits.Shape, b, m.Classes)
		}
		if len(m.Graph.Outputs) != 1 || m.Graph.Outputs[0] != m.Loss {
			t.Fatalf("outputs %v, want the loss", m.Graph.Outputs)
		}
		if _, err := m.Graph.Topo(); err != nil {
			t.Fatal(err)
		}
	})
}
