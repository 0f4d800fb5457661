//go:build amd64

package tensor

// useAsmKernel gates the AVX2+FMA micro-kernels on runtime CPU support.
// The binary stays runnable on pre-Haswell hardware (and under
// emulators without AVX) by falling back to the portable kernels; tests
// clear it to run those.
var useAsmKernel = detectFMA()

// gemmKernelFMA is the 6x16 AVX2+FMA micro-kernel
// (gemm_amd64.s): c[0:6][0:16] += a-panel @ b-panel over kc steps,
// c strided by ldc floats. Pointers must reference at least the packed
// panel extents (a: kc*6, b: kc*16, c: 5*ldc+16 floats).
//
//go:noescape
func gemmKernelFMA(kc int, a, b, c *float32, ldc int)

// convKernelFMA is the 6x16 AVX2+FMA convolution micro-kernel
// (gemm_amd64.s; convKernelGo is its portable twin): tile[i][j] =
// Σ_r src[base[i]+offs[r]]·w[r·16+j] over r < k, from +0 and in order.
// src must hold every window element, offs k offsets, w k·16 floats.
//
//go:noescape
func convKernelFMA(k int, src *float32, base *[gemmMR]int, offs *int, w *float32, tile *[gemmMR * gemmNR]float32)

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled AVX state).
func xgetbv0() (eax, edx uint32)

// detectFMA reports whether the CPU and OS support AVX2 and FMA:
// CPUID.1:ECX must advertise OSXSAVE+AVX+FMA, XCR0 must have the
// XMM and YMM state bits enabled by the OS, and CPUID.7.0:EBX must
// advertise AVX2.
func detectFMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
