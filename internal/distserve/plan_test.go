package distserve

import (
	"strings"
	"testing"

	"splitcnn/internal/models"
	"splitcnn/internal/serve"
)

func TestPartitionInvariants(t *testing.T) {
	for h := 0; h <= 64; h++ {
		for n := 1; n <= 8; n++ {
			parts := Partition(h, n)
			if len(parts) != n {
				t.Fatalf("Partition(%d,%d): %d ranges", h, n, len(parts))
			}
			covered := 0
			for i, r := range parts {
				if r.Lo > r.Hi {
					t.Fatalf("Partition(%d,%d)[%d] inverted: %v", h, n, i, r)
				}
				if i == 0 && r.Lo != 0 {
					t.Fatalf("Partition(%d,%d) starts at %d", h, n, r.Lo)
				}
				if i > 0 && r.Lo != parts[i-1].Hi {
					t.Fatalf("Partition(%d,%d) gap at %d: %v then %v", h, n, i, parts[i-1], r)
				}
				if i > 0 && !r.Empty() && r.Lo%2 != 0 {
					t.Fatalf("Partition(%d,%d)[%d] interior start %d is odd (two-row stages would straddle shards and exchange halo rows)", h, n, i, r.Lo)
				}
				covered += r.Len()
			}
			if parts[n-1].Hi != h || covered != h {
				t.Fatalf("Partition(%d,%d) covers %d rows ending at %d", h, n, covered, parts[n-1].Hi)
			}
		}
	}
}

// testSpec returns a small serve.Spec for an architecture, sized so the
// suite stays fast: 32x32 inputs except AlexNet, whose 11x11/4 stem
// needs more rows.
func testSpec(arch string) serve.Spec {
	h := 32
	if arch == "alexnet" {
		h = 64
	}
	return serve.Spec{
		Name: arch, Arch: arch, MaxBatch: 1,
		Model: models.Config{
			Classes: 10, InputC: 3, InputH: h, InputW: h, WidthDiv: 16,
		},
	}
}

func TestNewPlanAllArchitectures(t *testing.T) {
	for _, arch := range []string{"alexnet", "vgg16", "vgg19", "resnet18", "resnet50"} {
		t.Run(arch, func(t *testing.T) {
			m, _, err := serve.Materialize(testSpec(arch))
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPlan(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Stages) == 0 {
				t.Fatal("empty plan")
			}
			if p.Tail != p.Stages[len(p.Stages)-1].Name {
				t.Fatalf("Tail %q != last stage %q", p.Tail, p.Stages[len(p.Stages)-1].Name)
			}
			if !strings.Contains(p.Signature(""), "|snap=") {
				t.Fatalf("signature missing snapshot field: %s", p.Signature(""))
			}
			// Chained geometry: each stage's input is the previous
			// stage's output.
			prevC, prevH, prevW := p.InC, p.InH, p.InW
			for _, st := range p.Stages {
				if st.InC != prevC || st.InH != prevH || st.InW != prevW {
					t.Fatalf("stage %s input %dx%dx%d, previous output %dx%dx%d",
						st.Name, st.InC, st.InH, st.InW, prevC, prevH, prevW)
				}
				prevC, prevH, prevW = st.OutC, st.OutH, st.OutW
			}
			// Ownership tables cover every stage at every gang width.
			for n := 1; n <= 6; n++ {
				owners := p.Owners(n)
				for i, st := range p.Stages {
					total := 0
					for _, r := range owners[i] {
						total += r.Len()
					}
					if total != st.OutH {
						t.Fatalf("n=%d stage %s: owners cover %d of %d rows", n, st.Name, total, st.OutH)
					}
				}
				// Scattering the image bands covers at least the full image
				// (bands overlap by design: each shard gets its halo rows).
				seen := make([]bool, p.InH)
				for s := 0; s < n; s++ {
					r := p.ImageRange(owners, s)
					for row := r.Lo; row < r.Hi; row++ {
						seen[row] = true
					}
				}
				for row, ok := range seen {
					if !ok {
						t.Fatalf("n=%d: image row %d scattered to no shard", n, row)
					}
				}
			}
			t.Logf("%s: %d shardable stages, tail %q", arch, len(p.Stages), p.Tail)
		})
	}
}

// TestSignatureDistinguishesModels: two different geometries must never
// produce the same signature, and the snapshot fingerprint must be part
// of it.
func TestSignatureDistinguishesModels(t *testing.T) {
	m1, _, err := serve.Materialize(testSpec("vgg16"))
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := serve.Materialize(testSpec("vgg19"))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlan(m1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(m2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Signature("") == p2.Signature("") {
		t.Fatal("vgg16 and vgg19 share a signature")
	}
	if p1.Signature("aaaa") == p1.Signature("bbbb") {
		t.Fatal("signature ignores the snapshot fingerprint")
	}
}
