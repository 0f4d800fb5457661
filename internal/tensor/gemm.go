package tensor

// Cache-blocked, panel-packed SGEMM in the BLIS/GotoBLAS style. One
// driver backs MatMul, MatMulAT, MatMulBT, the alpha/beta Gemm entry
// point and the convolution backward's two products: the three loops
// around the micro-kernel block the operands so the packed B panel
// stays L3/L2-resident and the packed A block stays L2-resident, and
// the innermost computation is a register-blocked MR x NR micro-kernel
// (AVX2+FMA assembly on capable amd64 hardware, a pure-Go register tile
// otherwise).
//
// Packing normalizes both transpose variants into the same panel
// layout — A panels are MR rows wide and k-major, B panels are NR
// columns wide and k-major — so transA/transB cost only a different
// gather order during packing, never a different kernel. The
// convolution forward (conv.go) runs the same register tile over packed
// weights and the unpacked input instead.

const (
	// gemmMR x gemmNR is the register tile: 6x16 float32 = twelve YMM
	// accumulators, leaving registers for two B vectors and the A
	// broadcast in the FMA kernel.
	gemmMR = 6
	gemmNR = 16
)

// Cache blocking (elements): the packed A block is MC x KC
// (~120 KiB, L2-resident), each B panel slice of KC x NC is streamed
// through L2/L3. These are conservative defaults for the ~1 MiB L2 of
// the Xeon-class parts this repo targets; they are variables so
// benchmarks can tune them.
var (
	gemmMC = 126 // multiple of gemmMR
	gemmKC = 256
	gemmNC = 2048 // multiple of gemmNR
)

// Gemm computes dst = alpha*op(a)@op(b) + beta*dst for rank-2 tensors,
// where op(x) is x-transposed when the corresponding flag is set.
// Shapes follow the op() view: op(a) is [m, k], op(b) is [k, n], dst is
// [m, n]. dst must not alias a or b.
func Gemm(dst, a, b *Tensor, alpha, beta float32, transA, transB bool) {
	m, k, n := checkMatMul("Gemm", dst, a, b, transA, transB)
	gemm(dst.data, a.data, b.data, m, k, n, alpha, beta, transA, transB)
}

// gemm is the driver. Every output element's reduction order is "dst
// (after the beta pre-pass), then the KC blocks of k in order", whatever
// its row or column: full and edge tiles accumulate alike. So the bits
// of an element depend only on k and its operands, never on m or n —
// which is what keeps a batch prefix, a coalesced batch and a shard
// band bit-identical to the full computation.
func gemm(dd, ad, bd []float32, m, k, n int, alpha, beta float32, transA, transB bool) {
	// beta pre-pass: the kernel always accumulates into dst.
	if beta == 0 {
		clear(dd[:m*n])
	} else if beta != 1 {
		for i, v := range dd[:m*n] {
			dd[i] = v * beta
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncPanels := (nc + gemmNR - 1) / gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			bufB := floatScratch.get(ncPanels * kc * gemmNR)
			// Packing is a copy, so fanning its panels out cannot move a
			// bit; it pays only once the block is large enough.
			minPar := 2
			if kc*nc < 1<<15 {
				minPar = ncPanels + 1
			}
			parallelRange(ncPanels, minPar, packBArgs{
				dst: bufB, b: bd, trans: transB, pc: pc, jc: jc, kc: kc, nc: nc, n: n, k: k,
			}, packBPanels)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				mPanels := (mc + gemmMR - 1) / gemmMR
				bufA := floatScratch.get(mPanels * kc * gemmMR)
				packA(bufA, ad, ic, pc, mc, kc, m, k, alpha, transA)
				// Fan the row panels of this block out over the worker
				// pool only when the block carries enough arithmetic to
				// amortize the dispatch (~1 MFLOP per panel).
				minPar := 2
				if 2*mc*nc*kc < 1<<21 {
					minPar = mPanels + 1
				}
				parallelRange(mPanels, minPar, gemmTileArgs{
					dd: dd, bufA: bufA, bufB: bufB,
					ic: ic, jc: jc, mc: mc, nc: nc, kc: kc, ldc: n,
				}, gemmTiles)
				floatScratch.put(bufA)
			}
			floatScratch.put(bufB)
		}
	}
}

// gemmTileArgs carries one packed block's geometry to gemmTiles through
// parallelRange without a closure (see parallel.go on why).
type gemmTileArgs struct {
	dd, bufA, bufB          []float32
	ic, jc, mc, nc, kc, ldc int
}

// gemmTiles computes the micro-tiles of row panels [lo, hi) of one
// packed (A block, B panel) pair. Full MRxNR tiles accumulate straight
// into dst. An edge tile loads its rows x cols of dst into a stack tile,
// runs the same kernel and stores the tile back, so it accumulates
// exactly as a full tile would and the kernel never writes out of
// bounds.
func gemmTiles(t gemmTileArgs, lo, hi int) {
	var tile [gemmMR * gemmNR]float32
	for pi := lo; pi < hi; pi++ {
		i0 := pi * gemmMR
		rows := min(gemmMR, t.mc-i0)
		ap := t.bufA[pi*t.kc*gemmMR:]
		for j0 := 0; j0 < t.nc; j0 += gemmNR {
			cols := min(gemmNR, t.nc-j0)
			bp := t.bufB[(j0/gemmNR)*t.kc*gemmNR:]
			c := t.dd[(t.ic+i0)*t.ldc+t.jc+j0:]
			if rows == gemmMR && cols == gemmNR {
				gemmKernel(t.kc, ap, bp, c, t.ldc)
				continue
			}
			clear(tile[:])
			for i := 0; i < rows; i++ {
				copy(tile[i*gemmNR:i*gemmNR+cols], c[i*t.ldc:i*t.ldc+cols])
			}
			gemmKernel(t.kc, ap, bp, tile[:], gemmNR)
			for i := 0; i < rows; i++ {
				copy(c[i*t.ldc:i*t.ldc+cols], tile[i*gemmNR:i*gemmNR+cols])
			}
		}
	}
}

// gemmKernel computes c[0:MR][0:NR] += a-panel @ b-panel over kc steps,
// with c strided by ldc floats per row. a is k-major MR-wide, b is
// k-major NR-wide (the packed layouts).
func gemmKernel(kc int, a, b, c []float32, ldc int) {
	if useAsmKernel {
		gemmKernelFMA(kc, &a[0], &b[0], &c[0], ldc)
		return
	}
	gemmKernelGo(kc, a, b, c, ldc)
}

// gemmKernelGo is the portable micro-kernel: the same register-tile
// shape as the assembly one, expressed as a local accumulator array the
// compiler keeps in registers/stack. It is also the reference the
// assembly kernel is cross-checked against in tests.
func gemmKernelGo(kc int, a, b, c []float32, ldc int) {
	var acc [gemmMR][gemmNR]float32
	for i := 0; i < gemmMR; i++ {
		copy(acc[i][:], c[i*ldc:i*ldc+gemmNR])
	}
	for p := 0; p < kc; p++ {
		bp := b[p*gemmNR : p*gemmNR+gemmNR]
		ap := a[p*gemmMR : p*gemmMR+gemmMR]
		for i := 0; i < gemmMR; i++ {
			av := ap[i]
			ci := &acc[i]
			for j := 0; j < gemmNR; j++ {
				ci[j] += av * bp[j]
			}
		}
	}
	for i := 0; i < gemmMR; i++ {
		copy(c[i*ldc:i*ldc+gemmNR], acc[i][:])
	}
}

// packA copies the mc x kc block of op(A) starting at (ic, pc) into
// MR-row panels, k-major within each panel, scaling by alpha and
// zero-padding the last panel's row tail. op(A)[i][p] is a[i*k+p]
// untransposed and a[p*m+i] transposed.
func packA(dst, a []float32, ic, pc, mc, kc, m, k int, alpha float32, transA bool) {
	for i0 := 0; i0 < mc; i0 += gemmMR {
		rows := min(gemmMR, mc-i0)
		panel := dst[(i0/gemmMR)*kc*gemmMR:]
		if !transA && rows == gemmMR {
			// Six source rows streamed side by side into one panel.
			base := (ic+i0)*k + pc
			r0, r1, r2 := a[base:][:kc], a[base+k:][:kc], a[base+2*k:][:kc]
			r3, r4, r5 := a[base+3*k:][:kc], a[base+4*k:][:kc], a[base+5*k:][:kc]
			for p := range r0 {
				col := panel[p*gemmMR : p*gemmMR+gemmMR : p*gemmMR+gemmMR]
				col[0], col[1], col[2] = alpha*r0[p], alpha*r1[p], alpha*r2[p]
				col[3], col[4], col[5] = alpha*r3[p], alpha*r4[p], alpha*r5[p]
			}
		} else if !transA {
			panel = panel[:kc*gemmMR]
			clear(panel)
			for i := 0; i < rows; i++ {
				src := a[(ic+i0+i)*k+pc:][:kc]
				for p, v := range src {
					panel[p*gemmMR+i] = alpha * v
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				col := panel[p*gemmMR : p*gemmMR+gemmMR]
				src := a[(pc+p)*m+ic+i0:]
				for i := 0; i < rows; i++ {
					col[i] = alpha * src[i]
				}
				for i := rows; i < gemmMR; i++ {
					col[i] = 0
				}
			}
		}
	}
}

// packBArgs carries one kc x nc block of op(B) at (pc, jc) to
// packBPanels through parallelRange.
type packBArgs struct {
	dst, b               []float32
	trans                bool
	pc, jc, kc, nc, n, k int
}

// packBPanels packs NR-column panels [lo, hi) of one block, k-major
// within each panel, zero-padding the last panel's column tail.
func packBPanels(t packBArgs, lo, hi int) {
	b := t.b
	for j0 := lo * gemmNR; j0 < min(hi*gemmNR, t.nc); j0 += gemmNR {
		cols := min(gemmNR, t.nc-j0)
		panel := t.dst[(j0/gemmNR)*t.kc*gemmNR:]
		if !t.trans {
			for p := 0; p < t.kc; p++ {
				row := panel[p*gemmNR : p*gemmNR+gemmNR]
				src := b[(t.pc+p)*t.n+t.jc+j0:]
				copy(row[:cols], src[:cols])
				clear(row[cols:])
			}
		} else {
			for j := 0; j < cols; j++ {
				src := b[(t.jc+j0+j)*t.k+t.pc:]
				for p := 0; p < t.kc; p++ {
					panel[p*gemmNR+j] = src[p]
				}
			}
			for j := cols; j < gemmNR; j++ {
				for p := 0; p < t.kc; p++ {
					panel[p*gemmNR+j] = 0
				}
			}
		}
	}
}
