package main

import (
	"os"
	"path/filepath"
	"testing"

	"splitcnn/internal/models"
)

// TestCompileEveryArch runs `splitcnn compile -o` on every bundled
// architecture: the command refuses to write a page whose plotted
// written high water differs from the mapped slab, so this is that
// self-check under go test.
func TestCompileEveryArch(t *testing.T) {
	dir := t.TempDir()
	for _, arch := range models.Architectures() {
		t.Run(arch, func(t *testing.T) {
			hw := "32"
			if arch == "alexnet" {
				hw = "64" // alexnet's pool stack needs a larger input
			}
			out := filepath.Join(dir, arch+".html")
			if err := cmdCompile([]string{"-arch", arch, "-inh", hw, "-inw", hw, "-o", out}); err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(out); err != nil || st.Size() == 0 {
				t.Fatalf("no report page written: %v", err)
			}
		})
	}
}
