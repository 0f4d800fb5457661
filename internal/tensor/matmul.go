package tensor

import "fmt"

// MatMul computes dst = a @ b for rank-2 tensors: a is [m, k], b is
// [k, n], dst is [m, n]. All three variants route through the blocked
// packed Gemm engine (gemm.go).
func MatMul(dst, a, b *Tensor) {
	m, k, n := checkMatMul("MatMul", dst, a, b, false, false)
	gemm(dst.data, a.data, b.data, m, k, n, 1, 0, false, false)
}

// MatMulAT computes dst = aᵀ @ b: a is [k, m], b is [k, n], dst is [m, n].
func MatMulAT(dst, a, b *Tensor) {
	m, k, n := checkMatMul("MatMulAT", dst, a, b, true, false)
	gemm(dst.data, a.data, b.data, m, k, n, 1, 0, true, false)
}

// MatMulBT computes dst = a @ bᵀ: a is [m, k], b is [n, k], dst is [m, n].
func MatMulBT(dst, a, b *Tensor) {
	m, k, n := checkMatMul("MatMulBT", dst, a, b, false, true)
	gemm(dst.data, a.data, b.data, m, k, n, 1, 0, false, true)
}

func checkMatMul(op string, dst, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		panic(fmt.Sprintf("tensor.%s: want rank-2 tensors", op))
	}
	am, ak := a.shape[0], a.shape[1]
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.shape[0], b.shape[1]
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk || dst.shape[0] != am || dst.shape[1] != bn {
		panic(fmt.Sprintf("tensor.%s: incompatible shapes a=%v b=%v dst=%v", op, a.shape, b.shape, dst.shape))
	}
	return am, ak, bn
}
