package report_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/report"
)

// TestCompileReportRenders lowers the mini eval-mode VGG-19 through
// graph.Compile, renders the slab-timeline report, and pins the
// acceptance identity: the plotted written high water equals the slab
// size the program actually mapped.
func TestCompileReportRenders(t *testing.T) {
	m := models.VGG19CIFAR(4, models.Config{WidthDiv: 16, Eval: true})
	m.Graph.SetOutput(m.Logits)
	store := graph.NewParamStore()
	store.InitFromGraph(m.Graph, rand.New(rand.NewSource(1)), nn.KaimingInit)
	prog, err := graph.Compile(m.Graph, store, graph.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	data, peak, err := report.CompileReport("vgg19 compiled plan", prog)
	if err != nil {
		t.Fatal(err)
	}
	if peak != prog.SlabBytes() {
		t.Fatalf("plotted peak %d != mapped slab %d", peak, prog.SlabBytes())
	}
	if len(data.Charts) != 1 || len(data.Charts[0].Series) != 3 {
		t.Fatalf("want one chart with live + referenced + written series, got %+v", data.Charts)
	}
	if data.Table == nil || len(data.Table.Rows) != prog.Stats().Ops {
		t.Fatalf("plan table should list every op")
	}

	var buf bytes.Buffer
	if err := report.Render(&buf, data); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{"planned slab size", "written bytes", "fused into"} {
		if !strings.Contains(doc, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}
