//go:build !amd64

package tensor

// Non-amd64 builds always use the portable micro-kernels. It is a
// variable, as on amd64, so tests build on every architecture.
var useAsmKernel = false

func gemmKernelFMA(kc int, a, b, c *float32, ldc int) {
	panic("tensor: gemmKernelFMA unavailable on this architecture")
}

func convKernelFMA(k int, src *float32, base *[gemmMR]int, offs *int, w *float32, tile *[gemmMR * gemmNR]float32) {
	panic("tensor: convKernelFMA unavailable on this architecture")
}
