package splitcnn_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchRunnerBuilds compiles the benchmark runner. bench/ is a
// nested module that imports internal/*, so `go build ./...` never
// sees it: without this test only `make bench-check` notices a change
// that breaks an API the runner calls.
func TestBenchRunnerBuilds(t *testing.T) {
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		t.Skipf("no go command under GOROOT: %v", err)
	}
	cmd := exec.Command(goCmd, "build", "-o", filepath.Join(t.TempDir(), "bench"), ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build in bench/: %v\n%s", err, out)
	}
}
