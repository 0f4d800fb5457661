#include "textflag.h"

// func gemmKernelFMA(kc int, a, b, c *float32, ldc int)
//
// 6x16 SGEMM micro-kernel: C[0:6][0:16] += A·B where A is the packed
// MR-wide k-major panel and B the packed NR-wide k-major panel.
// Register plan: Y0..Y11 hold the twelve 8-float halves of the 6x16 C
// tile, Y12/Y13 hold the current B row, Y14/Y15 alternate as the A
// broadcast. Per k step: 2 B loads, 6 broadcasts, 12 FMAs — FMA-bound,
// which is the point.
TEXT ·gemmKernelFMA(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8            // C row stride in bytes

	// Load the 6x16 C tile.
	MOVQ    DI, R9
	VMOVUPS (R9), Y0
	VMOVUPS 32(R9), Y1
	ADDQ    R8, R9
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	ADDQ    R8, R9
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	ADDQ    R8, R9
	VMOVUPS (R9), Y6
	VMOVUPS 32(R9), Y7
	ADDQ    R8, R9
	VMOVUPS (R9), Y8
	VMOVUPS 32(R9), Y9
	ADDQ    R8, R9
	VMOVUPS (R9), Y10
	VMOVUPS 32(R9), Y11

loop:
	VMOVUPS      (BX), Y12
	VMOVUPS      32(BX), Y13
	VBROADCASTSS (SI), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS 4(SI), Y15
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3
	VBROADCASTSS 8(SI), Y14
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VBROADCASTSS 12(SI), Y15
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7
	VBROADCASTSS 16(SI), Y14
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9
	VBROADCASTSS 20(SI), Y15
	VFMADD231PS  Y12, Y15, Y10
	VFMADD231PS  Y13, Y15, Y11
	ADDQ         $24, SI   // 6 floats of A
	ADDQ         $64, BX   // 16 floats of B
	DECQ         CX
	JNZ          loop

	// Store the tile back.
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	ADDQ    R8, DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)
	VZEROUPPER
	RET

// func convKernelFMA(k int, src *float32, base *[6]int, offs *int, w *float32, tile *[96]float32)
//
// 6x16 convolution micro-kernel: tile[i][j] = Σ_r src[base[i]+offs[r]]
// · w[r·16+j] over r = 0 … k−1, from +0 and in order. The six pixels'
// window pointers live in R8..R13 and the current window offset in DX,
// so each k step is one offset load, 2 weight loads, 6 broadcasts
// straight from the input and the same 12 FMAs as gemmKernelFMA, with
// the pixel value as the broadcast operand instead of the weight.
TEXT ·convKernelFMA(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ src+8(FP), AX
	MOVQ base+16(FP), DX
	MOVQ offs+24(FP), SI
	MOVQ w+32(FP), BX

	// R8..R13 = &src[base[i]].
	MOVQ 0(DX), R8
	LEAQ (AX)(R8*4), R8
	MOVQ 8(DX), R9
	LEAQ (AX)(R9*4), R9
	MOVQ 16(DX), R10
	LEAQ (AX)(R10*4), R10
	MOVQ 24(DX), R11
	LEAQ (AX)(R11*4), R11
	MOVQ 32(DX), R12
	LEAQ (AX)(R12*4), R12
	MOVQ 40(DX), R13
	LEAQ (AX)(R13*4), R13

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

convloop:
	MOVQ         (SI), DX
	VMOVUPS      (BX), Y12
	VMOVUPS      32(BX), Y13
	VBROADCASTSS (R8)(DX*4), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS (R9)(DX*4), Y15
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3
	VBROADCASTSS (R10)(DX*4), Y14
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VBROADCASTSS (R11)(DX*4), Y15
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7
	VBROADCASTSS (R12)(DX*4), Y14
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9
	VBROADCASTSS (R13)(DX*4), Y15
	VFMADD231PS  Y12, Y15, Y10
	VFMADD231PS  Y13, Y15, Y11
	ADDQ         $8, SI    // next window offset
	ADDQ         $64, BX   // 16 floats of w
	DECQ         CX
	JNZ          convloop

	// Store the tile, pixel-major.
	MOVQ tile+40(FP), DI
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VMOVUPS Y8, 256(DI)
	VMOVUPS Y9, 288(DI)
	VMOVUPS Y10, 320(DI)
	VMOVUPS Y11, 352(DI)
	VZEROUPPER
	RET

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
