package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refGemm is the plain reference triple loop the blocked engine is
// checked against, accumulating in float64 to bound its own error.
func refGemm(dst, a, b *Tensor, alpha, beta float32, transA, transB bool) {
	m, k, n := checkMatMul("refGemm", dst, a, b, transA, transB)
	at := func(i, p int) float32 {
		if transA {
			return a.data[p*m+i]
		}
		return a.data[i*k+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b.data[j*k+p]
		}
		return b.data[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(at(i, p)) * float64(bt(p, j))
			}
			dst.data[i*n+j] = alpha*float32(acc) + beta*dst.data[i*n+j]
		}
	}
}

func randTensor(rng *rand.Rand, dims ...int) *Tensor {
	t := New(dims...)
	t.RandUniform(rng, -1, 1)
	return t
}

// relTol compares against a k-scaled absolute-and-relative tolerance:
// float32 dot products of length k accumulate O(k*eps) relative error.
func relTol(k int) float64 { return 1e-4 * math.Sqrt(float64(k)+1) }

// TestGemmExhaustiveSmall sweeps every (m, k, n) in a small cube —
// covering all micro-tile edge cases around MR=6 and NR=16 — across
// the four transpose variants.
func TestGemmExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 3, 5, 6, 7, 12, 13, 15, 16, 17, 31, 33}
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range sizes {
				for variant := 0; variant < 4; variant++ {
					transA, transB := variant&1 != 0, variant&2 != 0
					ash := []int{m, k}
					if transA {
						ash = []int{k, m}
					}
					bsh := []int{k, n}
					if transB {
						bsh = []int{n, k}
					}
					a := randTensor(rng, ash...)
					b := randTensor(rng, bsh...)
					got, want := New(m, n), New(m, n)
					Gemm(got, a, b, 1, 0, transA, transB)
					refGemm(want, a, b, 1, 0, transA, transB)
					if d := MaxAbsDiff(got, want); d > relTol(k) {
						t.Fatalf("Gemm(m=%d,k=%d,n=%d,tA=%v,tB=%v): max diff %g", m, k, n, transA, transB, d)
					}
				}
			}
		}
	}
}

// TestGemmAlphaBeta checks the alpha/beta semantics, including the
// beta=0 must-overwrite (not read) contract on NaN-poisoned output.
func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ alpha, beta float32 }{
		{1, 0}, {2, 0}, {1, 1}, {0.5, -1}, {-1, 0.25}, {0, 1}, {0, 0},
	} {
		m, k, n := 13, 29, 21
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		got := randTensor(rng, m, n)
		if tc.beta == 0 {
			got.Fill(float32(math.NaN()))
		}
		want := got.Clone()
		if tc.beta == 0 {
			want.Zero()
		}
		Gemm(got, a, b, tc.alpha, tc.beta, false, false)
		refGemm(want, a, b, tc.alpha, tc.beta, false, false)
		if d := MaxAbsDiff(got, want); !(d <= relTol(k)) { // NaN-safe compare
			t.Fatalf("Gemm(alpha=%g, beta=%g): max diff %g", tc.alpha, tc.beta, d)
		}
	}
}

// TestGemmRandomizedShapes exercises larger, blocking-boundary shapes
// (around MC/KC/NC) with random alpha/beta and transposes.
func TestGemmRandomizedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []int{1, 6, 50, 126, 127, 200, 256, 300}
	for trial := 0; trial < 40; trial++ {
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		transA, transB := rng.Intn(2) == 1, rng.Intn(2) == 1
		alpha := float32(rng.NormFloat64())
		beta := float32(rng.NormFloat64())
		ash := []int{m, k}
		if transA {
			ash = []int{k, m}
		}
		bsh := []int{k, n}
		if transB {
			bsh = []int{n, k}
		}
		a := randTensor(rng, ash...)
		b := randTensor(rng, bsh...)
		got := randTensor(rng, m, n)
		want := got.Clone()
		Gemm(got, a, b, alpha, beta, transA, transB)
		refGemm(want, a, b, alpha, beta, transA, transB)
		if d := MaxAbsDiff(got, want); d > relTol(k) {
			t.Fatalf("trial %d: Gemm(m=%d,k=%d,n=%d,tA=%v,tB=%v,alpha=%g,beta=%g): max diff %g",
				trial, m, k, n, transA, transB, alpha, beta, d)
		}
	}
}

// TestGemmKernelAsmMatchesGo cross-checks the assembly micro-kernel
// against the portable one on random panels, including ldc > NR.
func TestGemmKernelAsmMatchesGo(t *testing.T) {
	if !useAsmKernel {
		t.Skip("no FMA kernel on this CPU/arch")
	}
	rng := rand.New(rand.NewSource(4))
	for _, kc := range []int{1, 2, 7, 64, 256} {
		for _, ldc := range []int{gemmNR, 24, 100} {
			a := make([]float32, kc*gemmMR)
			b := make([]float32, kc*gemmNR)
			cAsm := make([]float32, (gemmMR-1)*ldc+gemmNR)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			for i := range b {
				b[i] = float32(rng.NormFloat64())
			}
			for i := range cAsm {
				cAsm[i] = float32(rng.NormFloat64())
			}
			cGo := append([]float32(nil), cAsm...)
			gemmKernelFMA(kc, &a[0], &b[0], &cAsm[0], ldc)
			gemmKernelGo(kc, a, b, cGo, ldc)
			for i := range cAsm {
				d := math.Abs(float64(cAsm[i]) - float64(cGo[i]))
				if d > relTol(kc) {
					t.Fatalf("kc=%d ldc=%d: asm/go kernels differ at %d: %g vs %g", kc, ldc, i, cAsm[i], cGo[i])
				}
			}
		}
	}
}

// TestGemmParallelConsistency runs the same product serially and with
// forced parallelism and demands identical results (same blocking ⇒
// same float32 rounding regardless of worker count).
func TestGemmParallelConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTensor(rng, 190, 140)
	b := randTensor(rng, 140, 170)
	serial, par := New(190, 170), New(190, 170)
	prev := SetParallelism(1)
	MatMul(serial, a, b)
	SetParallelism(8)
	MatMul(par, a, b)
	SetParallelism(prev)
	if d := MaxAbsDiff(serial, par); d != 0 {
		t.Fatalf("parallel GEMM differs from serial by %g", d)
	}
}

func BenchmarkGemmSquare(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			x := randTensor(rng, n, n)
			y := randTensor(rng, n, n)
			dst := New(n, n)
			b.SetBytes(int64(3 * n * n * 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(dst, x, y)
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// TestGemmShapeInvariance pins that an output element's bits depend on
// k and its operands only: the first n' columns (m' rows) of a Gemm
// equal, bit for bit, a Gemm over just n' columns (m' rows), for every
// transpose variant and β ∈ {0, 1}, with k > 2·KC so that edge tiles
// accumulate across KC blocks.
func TestGemmShapeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// leadRows and leadCols copy the first r rows / columns of a stored
	// rank-2 operand: op(A)'s first m' rows and op(B)'s first n' columns
	// are one or the other, depending on the transpose flag.
	leadRows := func(x *Tensor, r int) *Tensor {
		return FromSlice(x.data[:r*x.shape[1]], r, x.shape[1])
	}
	leadCols := func(x *Tensor, r int) *Tensor {
		rows, cols := x.shape[0], x.shape[1]
		sub := New(rows, r)
		for i := 0; i < rows; i++ {
			copy(sub.data[i*r:(i+1)*r], x.data[i*cols:])
		}
		return sub
	}
	for trial := 0; trial < 6; trial++ {
		m, n, k := 1+rng.Intn(40), 1+rng.Intn(70), 2*gemmKC+1+rng.Intn(200)
		for variant := 0; variant < 8; variant++ {
			transA, transB, beta := variant&1 != 0, variant&2 != 0, float32(variant>>2)
			ash, bsh := []int{m, k}, []int{k, n}
			if transA {
				ash = []int{k, m}
			}
			if transB {
				bsh = []int{n, k}
			}
			a, b := randTensor(rng, ash...), randTensor(rng, bsh...)
			c0 := randTensor(rng, m, n)
			full := c0.Clone()
			Gemm(full, a, b, 1, beta, transA, transB)
			for np := 1; np < n; np++ {
				bsub := leadCols(b, np)
				if transB {
					bsub = leadRows(b, np)
				}
				dst := leadCols(c0, np)
				Gemm(dst, a, bsub, 1, beta, transA, transB)
				if MaxAbsDiff(dst, leadCols(full, np)) != 0 {
					t.Fatalf("m=%d k=%d n=%d tA=%v tB=%v β=%g: an n'=%d product differs from the full one's first columns",
						m, k, n, transA, transB, beta, np)
				}
			}
			for mp := 1; mp < m; mp++ {
				asub := leadRows(a, mp)
				if transA {
					asub = leadCols(a, mp)
				}
				dst := leadRows(c0, mp)
				Gemm(dst, asub, b, 1, beta, transA, transB)
				if MaxAbsDiff(dst, leadRows(full, mp)) != 0 {
					t.Fatalf("m=%d k=%d n=%d tA=%v tB=%v β=%g: an m'=%d product differs from the full one's first rows",
						m, k, n, transA, transB, beta, mp)
				}
			}
		}
	}
}
