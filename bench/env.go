package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"splitcnn/internal/buildinfo"
	"splitcnn/internal/tensor"
)

// env is the context a number was measured in; it rides in every report
// so two results are never compared across boxes by accident.
type env struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	CPUFeatures string  `json:"cpu_features"`
	Commit      string  `json:"commit"`
	LoadAvg1    float64 `json:"loadavg_1min"`
	// Noisy is set when the box was already busy before the first
	// workload (1-min load average above noisyLoad) or has fewer cores
	// than the run is pinned to: such a run is flagged, not trusted.
	Noisy bool `json:"noisy"`
}

const noisyLoad = 1.0

func (e env) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q features=%s commit=%s load1=%.2f noisy=%v",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.CPUFeatures, e.Commit, e.LoadAvg1, e.Noisy)
}

func captureEnv() env {
	e := env{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    procField("/proc/cpuinfo", "model name"),
		CPUFeatures: tensor.CPUFeatures(),
		Commit:      os.Getenv("BENCH_COMMIT"), // set by run.sh
	}
	if e.Commit == "" {
		e.Commit = buildinfo.Get().Revision
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.Noisy = e.LoadAvg1 > noisyLoad || e.NProc < procs
	return e
}

// procField returns the value of the first "key : value" line of a
// /proc file ("" when the file or key is missing).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM")) // "123456 kB"
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(f[0], 64)
	return kb / 1024
}
