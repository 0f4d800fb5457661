package tensor

import "runtime"

// CPUFeatures identifies the GEMM micro-kernel selected at runtime:
// the AVX2+FMA assembly kernel or the portable Go one. Benchmark
// results record it, since the two run at very different speeds.
func CPUFeatures() string {
	if useAsmKernel {
		return runtime.GOARCH + "+avx2fma"
	}
	return runtime.GOARCH + "+portable"
}
