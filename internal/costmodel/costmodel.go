// Package costmodel provides the analytical performance model standing
// in for the paper's profiling stage (§4.3). The paper measures each
// layer's execution time with high_resolution_clock on a P100; this
// repository derives it from a roofline model over the op's declared
// FLOPs and bytes touched. The planner only consumes (time, size,
// bandwidth) triples, so the code paths downstream are identical; what
// the roofline preserves is the compute-to-memory-traffic ratio that
// makes convolutions offload-friendly and pooling/BN layers not —
// the central observation of Figure 1.
package costmodel

import (
	"splitcnn/internal/graph"
	"splitcnn/internal/tensor"
)

// DeviceSpec describes the accelerator and its host link.
type DeviceSpec struct {
	Name string
	// PeakFLOPS is the peak single-precision throughput (FLOP/s).
	PeakFLOPS float64
	// Efficiency derates PeakFLOPS for realized kernels (cuDNN
	// convolutions typically achieve 50-70% of peak).
	Efficiency float64
	// MemBandwidth is device-memory (HBM) bandwidth in bytes/s.
	MemBandwidth float64
	// MemEfficiency derates MemBandwidth for realized kernels.
	MemEfficiency float64
	// LinkBandwidth is the host link (NVLink) bandwidth in bytes/s; the
	// paper measures 34.1 GB/s on NVLink 1.0.
	LinkBandwidth float64
	// KernelOverhead is the fixed per-kernel launch cost in seconds.
	KernelOverhead float64
	// MemCapacity is the device memory size in bytes.
	MemCapacity int64
}

// P100 returns a spec matching the paper's testbed: an NVIDIA Tesla
// P100 (16 GB) attached over NVLink 1.0 in an IBM Power System S822LC.
func P100() DeviceSpec {
	return DeviceSpec{
		Name:           "P100-NVLink1",
		PeakFLOPS:      9.3e12,
		Efficiency:     0.75,
		MemBandwidth:   732e9,
		MemEfficiency:  0.75,
		LinkBandwidth:  34.1e9,
		KernelOverhead: 5e-6,
		MemCapacity:    16 << 30,
	}
}

// V100 returns a spec for the paper's "latest GPU" reference point (an
// NVIDIA Tesla V100 32 GB over NVLink 2.0).
func V100() DeviceSpec {
	return DeviceSpec{
		Name:           "V100-NVLink2",
		PeakFLOPS:      15.7e12,
		Efficiency:     0.75,
		MemBandwidth:   900e9,
		MemEfficiency:  0.75,
		LinkBandwidth:  68e9,
		KernelOverhead: 5e-6,
		MemCapacity:    32 << 30,
	}
}

// winogradSpeedup is the arithmetic reduction of the Winograd
// F(2x2, 3x3) fast-convolution algorithm cuDNN applies to 3x3 stride-1
// convolutions. §2.2.1 singles this out as a driver of the memory
// bottleneck: layer compute time shrinks while intermediate-result
// volume does not, leaving less time to offload.
const winogradSpeedup = 2.25

// effectiveFLOPs derates the op's FLOP count for fast-convolution
// algorithms.
func effectiveFLOPs(op graph.Op, in []tensor.Shape, out tensor.Shape) float64 {
	f := float64(op.FLOPs(in, out))
	if c, ok := op.(graph.WindowOp); ok && op.Kind() == "conv" {
		if p := c.Window(); p.KH == 3 && p.KW == 3 && p.SH == 1 && p.SW == 1 {
			f /= winogradSpeedup
		}
	}
	return f
}

// CopyTime returns the host-link transfer time for n bytes.
func (d DeviceSpec) CopyTime(n int64) float64 {
	return float64(n) / d.LinkBandwidth
}

// opBytes sums the device-memory traffic of one forward execution:
// every input read plus the output written. Convolution workspace is
// deliberately not counted as traffic — cuDNN's implicit-GEMM and
// Winograd kernels stage through on-chip memory rather than streaming a
// materialized im2col buffer; workspace still counts as *capacity* via
// graph.Op.WorkspaceBytes. Batch normalization makes an extra reduction
// pass over its input (statistics then normalization).
func opBytes(op graph.Op, in []tensor.Shape, out tensor.Shape) int64 {
	var b int64
	for _, s := range in {
		b += s.Bytes()
	}
	b += out.Bytes()
	if op.Kind() == "batchnorm" && len(in) > 0 {
		b += in[0].Bytes()
	}
	return b
}

// ForwardTime estimates the forward execution time of op: the roofline
// max of compute time and memory time plus launch overhead.
func (d DeviceSpec) ForwardTime(op graph.Op, in []tensor.Shape, out tensor.Shape) float64 {
	compute := effectiveFLOPs(op, in, out) / (d.PeakFLOPS * d.Efficiency)
	mem := float64(opBytes(op, in, out)) / (d.MemBandwidth * d.MemEfficiency)
	return max(compute, mem) + d.KernelOverhead
}

// BackwardTime estimates the backward execution time. Parameterized ops
// (convolution, linear) run two GEMM-shaped kernels backward (data grad
// and weight grad), roughly doubling FLOPs and traffic; other ops move
// about the same data as forward.
func (d DeviceSpec) BackwardTime(op graph.Op, in []tensor.Shape, out tensor.Shape) float64 {
	factor := 1.0
	switch op.Kind() {
	case "conv", "linear":
		factor = 2.0
	case "batchnorm":
		factor = 1.5 // extra reduction passes
	}
	compute := factor * effectiveFLOPs(op, in, out) / (d.PeakFLOPS * d.Efficiency)
	mem := factor * float64(opBytes(op, in, out)) / (d.MemBandwidth * d.MemEfficiency)
	return max(compute, mem) + d.KernelOverhead
}
