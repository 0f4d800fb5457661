// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5 and §6). Each driver regenerates the same rows
// or series the paper reports — on the simulated device for the memory
// and throughput experiments, and by real CPU training of scaled-down
// models on synthetic data for the accuracy experiments — and prints a
// plain-text table. EXPERIMENTS.md in the repository root records
// paper-versus-measured values for every driver.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"

	"splitcnn/internal/costmodel"
)

// Scale trades fidelity for run time in the training-based experiments.
type Scale int

// Scales.
const (
	// Quick is sized for tests and smoke runs (minutes in total).
	Quick Scale = iota
	// Standard is the default benchmark scale (tens of minutes for the
	// full accuracy suite).
	Standard
	// Full pushes sample counts and epochs further.
	Full
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Standard:
		return "standard"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale parses a scale name.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "standard", "":
		return Standard, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want quick, standard or full)", s)
}

// Options configures an experiment run.
type Options struct {
	Scale  Scale
	Device costmodel.DeviceSpec
	Out    io.Writer
	// Seed offsets the deterministic seeds of training experiments.
	Seed int64
	// TraceDir, when non-empty, makes the simulation-based experiments
	// (fig8, fig9) write a Chrome trace_event JSON and a metrics JSON
	// per simulated run into the directory as a side effect.
	TraceDir string
}

func (o *Options) fill() {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Device.Name == "" {
		o.Device = costmodel.P100()
	}
}

func (o *Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// Runner is an experiment entry point.
type Runner func(Options) error

// registry maps experiment IDs to drivers; filled by init functions in
// the per-figure files.
var registry = map[string]Runner{}

// Run dispatches an experiment by ID ("fig1", "fig4", ..., "table1").
func Run(id string, opt Options) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (available: %v)", id, IDs())
	}
	return r(opt)
}

// IDs lists the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
