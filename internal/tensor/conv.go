package tensor

import "fmt"

// ConvParams describes a 2-D convolution: kernel size, stride, and
// asymmetric padding. Dilation and groups are intentionally out of scope
// (the paper's models use neither).
type ConvParams struct {
	KH, KW int
	SH, SW int
	Pad    Pad2D
}

// OutSize returns the spatial output size of a convolution/pooling
// window operation over an input of height h and width w. The division
// floors (not truncates toward zero), so a window larger than the padded
// input correctly yields a non-positive size rather than 1.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = floorDiv(h+p.Pad.Top+p.Pad.Bottom-p.KH, p.SH) + 1
	ow = floorDiv(w+p.Pad.Left+p.Pad.Right-p.KW, p.SW) + 1
	return oh, ow
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv rounds the quotient towards +inf; b must be positive.
func ceilDiv(a, b int) int { return floorDiv(a+b-1, b) }

func (p ConvParams) check(x *Tensor) (n, c, h, w, oh, ow int) {
	n, c, h, w = x.shape.N(), x.shape.C(), x.shape.H(), x.shape.W()
	oh, ow = p.OutSize(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv %+v over %v yields non-positive output (%d,%d)", p, x.shape, oh, ow))
	}
	return n, c, h, w, oh, ow
}

// oxRange returns the output-x interval [oxLo, oxHi) whose input column
// ix = ox*SW - Pad.Left + kx lands inside [0, w), clamped to [0, ow].
// Precomputing it per (kx) row lets the im2col/col2im inner loops run
// without per-pixel bounds checks — and for stride 1 the interior
// becomes one contiguous copy. The range may be empty (a kernel column
// that reads only padding, as on narrow padded patches); callers then
// touch no source element.
func (p ConvParams) oxRange(kx, w, ow int) (oxLo, oxHi int) {
	oxLo, oxHi = p.Pad.Left-kx, w+p.Pad.Left-kx
	if p.SW != 1 {
		oxLo, oxHi = ceilDiv(oxLo, p.SW), ceilDiv(oxHi, p.SW)
	}
	oxLo = min(max(oxLo, 0), ow)
	return oxLo, max(min(oxHi, ow), oxLo)
}

// Im2ColArena lowers the convolution windows of x into a matrix of
// shape [C*KH*KW, N*OH*OW], drawn from the arena (nil falls back to
// plain allocation), so that convolution becomes a matrix multiply.
// Out-of-bounds (padding) positions contribute zeros.
func Im2ColArena(a *Arena, x *Tensor, p ConvParams) *Tensor {
	n, c, h, w, oh, ow := p.check(x)
	col := a.GetRaw(c*p.KH*p.KW, n*oh*ow)
	cols := n * oh * ow
	parallelRange(c*p.KH*p.KW, 1+parallelThreshold/cols, im2colArgs{
		cd: col.data, xd: x.data, p: p,
		n: n, c: c, h: h, w: w, oh: oh, ow: ow,
	}, im2colRows)
	return col
}

type im2colArgs struct {
	cd, xd             []float32
	p                  ConvParams
	n, c, h, w, oh, ow int
}

func im2colRows(t im2colArgs, lo, hi int) {
	p := t.p
	khkw := p.KH * p.KW
	cols := t.n * t.oh * t.ow
	for row := lo; row < hi; row++ {
		ch := row / khkw
		rem := row % khkw
		ky, kx := rem/p.KW, rem%p.KW
		oxLo, oxHi := p.oxRange(kx, t.w, t.ow)
		ixBase := oxLo*p.SW - p.Pad.Left + kx
		dst := t.cd[row*cols : (row+1)*cols]
		for b := 0; b < t.n; b++ {
			src := t.xd[(b*t.c+ch)*t.h*t.w : (b*t.c+ch+1)*t.h*t.w]
			base := b * t.oh * t.ow
			for oy := 0; oy < t.oh; oy++ {
				iy := oy*p.SH - p.Pad.Top + ky
				drow := dst[base+oy*t.ow : base+(oy+1)*t.ow]
				if iy < 0 || iy >= t.h {
					clear(drow)
					continue
				}
				srow := src[iy*t.w : (iy+1)*t.w]
				clear(drow[:oxLo])
				clear(drow[oxHi:])
				if oxLo == oxHi {
					continue
				}
				if p.SW == 1 {
					copy(drow[oxLo:oxHi], srow[ixBase:ixBase+oxHi-oxLo])
				} else {
					ix := ixBase
					for ox := oxLo; ox < oxHi; ox++ {
						drow[ox] = srow[ix]
						ix += p.SW
					}
				}
			}
		}
	}
}

// Col2ImArena is the adjoint of Im2ColArena: it scatters (accumulates)
// a [C*KH*KW, N*OH*OW] matrix back into an [N,C,H,W] tensor drawn from
// the arena.
func Col2ImArena(a *Arena, col *Tensor, p ConvParams, n, c, h, w int) *Tensor {
	oh, ow := p.OutSize(h, w)
	cols := n * oh * ow
	if !col.shape.Equal(Shape{c * p.KH * p.KW, cols}) {
		panic(fmt.Sprintf("tensor.Col2Im: col shape %v does not match %+v over (%d,%d,%d,%d)", col.shape, p, n, c, h, w))
	}
	out := a.Get(n, c, h, w) // zeroed: the scatter accumulates
	// Parallelize over channels: each channel's scatter touches a
	// disjoint region of the output.
	perCh := p.KH * p.KW * cols
	parallelRange(c, 1+parallelThreshold/perCh, col2imArgs{
		cd: col.data, od: out.data, p: p,
		n: n, c: c, h: h, w: w, oh: oh, ow: ow,
	}, col2imChans)
	return out
}

type col2imArgs struct {
	cd, od             []float32
	p                  ConvParams
	n, c, h, w, oh, ow int
}

func col2imChans(t col2imArgs, lo, hi int) {
	p := t.p
	cols := t.n * t.oh * t.ow
	for ch := lo; ch < hi; ch++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				row := (ch*p.KH+ky)*p.KW + kx
				oxLo, oxHi := p.oxRange(kx, t.w, t.ow)
				if oxLo == oxHi {
					continue // this kernel column reads only padding
				}
				ixBase := oxLo*p.SW - p.Pad.Left + kx
				src := t.cd[row*cols : (row+1)*cols]
				for b := 0; b < t.n; b++ {
					dst := t.od[(b*t.c+ch)*t.h*t.w : (b*t.c+ch+1)*t.h*t.w]
					base := b * t.oh * t.ow
					for oy := 0; oy < t.oh; oy++ {
						iy := oy*p.SH - p.Pad.Top + ky
						if iy < 0 || iy >= t.h {
							continue
						}
						srow := src[base+oy*t.ow : base+(oy+1)*t.ow]
						drow := dst[iy*t.w : (iy+1)*t.w]
						if p.SW == 1 {
							drow = drow[ixBase:]
							for i, v := range srow[oxLo:oxHi] {
								drow[i] += v
							}
						} else {
							ix := ixBase
							for ox := oxLo; ox < oxHi; ox++ {
								drow[ix] += srow[ox]
								ix += p.SW
							}
						}
					}
				}
			}
		}
	}
}

// Conv2DInto computes a 2-D convolution into a caller-supplied dst. x
// is [N,Cin,H,W], weight is [Cout,Cin,KH,KW], bias (may be nil) is
// [Cout]; dst is [N,Cout,OH,OW]. dst must not alias x.
//
// It is an implicit GEMM that packs only the weights: they are copied
// into NR-wide k-major panels over Cout (O(Cout·K), independent of batch
// and map size), and the register tile reads its MR output pixels' input
// windows where they lie, in one zero-padded arena copy of x laid out
// as x is, through a table of window offsets. So every stride, kernel
// size, map width and batch crossing runs through the same tile with no
// edge path. Each tile writes its MR pixels × NR channels plus bias
// straight into NCHW dst, and the tiles of one call are forked once over
// the worker pool.
//
// Every output element is one chain: +0, a fused multiply-add per k in
// (ci, ky, kx) order, then + bias (0 when nil). That is the chain of
// Im2ColArena followed by Gemm and a bias add, so the two are
// bit-identical, and — the chain depending on nothing but K — so is
// the same convolution over any batch prefix or band of output rows.
func Conv2DInto(a *Arena, dst, x, weight, bias *Tensor, p ConvParams) {
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	if !weight.shape.Equal(Shape{cout, cin, p.KH, p.KW}) {
		panic(fmt.Sprintf("tensor.Conv2DInto: weight %v incompatible with input %v and %+v", weight.shape, x.shape, p))
	}
	if len(dst.data) != n*cout*oh*ow {
		panic(fmt.Sprintf("tensor.Conv2DInto: dst %v, want %d elements", dst.shape, n*cout*oh*ow))
	}
	// The windows span rows [0, hp) and columns [0, wp) of the padded
	// input, whose (py, px) is x at (py−Top, px−Left).
	hp, wp := (oh-1)*p.SH+p.KH, (ow-1)*p.SW+p.KW
	padded := a.GetRaw(n*cin, hp, wp)
	padInput(padded.data, x.data, n*cin, h, w, hp, wp, p.Pad)
	t := convTileArgs{
		dst: dst.data, src: padded.data, row: wp, image: cin * hp * wp,
		k: cin * p.KH * p.KW, n: n, cout: cout, oh: oh, ow: ow, sh: p.SH, sw: p.SW,
	}
	t.offs = offsetScratch.get(t.k)
	r := 0
	for ci := 0; ci < cin; ci++ {
		for ky := 0; ky < p.KH; ky++ {
			for kx := 0; kx < p.KW; kx++ {
				t.offs[r] = ci*hp*wp + ky*wp + kx
				r++
			}
		}
	}
	t.panels = (cout + gemmNR - 1) / gemmNR
	t.w = floatScratch.get(t.panels * t.k * gemmNR)
	packConvWeights(t.w, weight.data, cout, t.k)
	if bias != nil {
		t.bias = bias.data
	}
	// Fork only when each of two chunks carries about 1 MFLOP.
	tiles := (n*oh*ow + gemmMR - 1) / gemmMR
	tileFlops := 2 * gemmMR * gemmNR * t.k * t.panels
	parallelRange(tiles, 1+(1<<21)/tileFlops, t, convTiles)
	floatScratch.put(t.w)
	offsetScratch.put(t.offs)
	a.Put(padded)
}

// padInput copies the planes of x ([planes, h, w]) into dst ([planes,
// hp, wp]) so that dst's (py, px) is x at (py−Top, px−Left), or 0 where
// that lies outside x. Negative pads crop.
func padInput(dst, x []float32, planes, h, w, hp, wp int, pad Pad2D) {
	clear(dst)
	lo := min(max(pad.Left, 0), wp)    // the first column inside x
	hi := min(max(w+pad.Left, lo), wp) // one past the last
	py0, py1 := min(max(pad.Top, 0), hp), min(max(h+pad.Top, 0), hp)
	if lo == hi {
		return
	}
	for pl := 0; pl < planes; pl++ {
		src, out := x[pl*h*w:(pl+1)*h*w], dst[pl*hp*wp:(pl+1)*hp*wp]
		for py := py0; py < py1; py++ {
			copy(out[py*wp+lo:py*wp+hi], src[(py-pad.Top)*w+lo-pad.Left:])
		}
	}
}

// packConvWeights copies weight, read as [cout, k], into NR-wide
// k-major panels over Cout: panel q's row r holds channels q·NR …
// q·NR+NR−1 of k-index r, zero past cout. Each weight row is read in
// order and scattered down its panel column, four k-rows a step.
func packConvWeights(dst, weight []float32, cout, k int) {
	if cout%gemmNR != 0 {
		clear(dst[cout/gemmNR*k*gemmNR:])
	}
	for co := 0; co < cout; co++ {
		col := dst[co/gemmNR*k*gemmNR+co%gemmNR:]
		src := weight[co*k : (co+1)*k]
		r := 0
		for ; r+4 <= k; r += 4 {
			s, c := src[r:r+4:r+4], col[r*gemmNR:r*gemmNR+3*gemmNR+1]
			c[0], c[gemmNR], c[2*gemmNR], c[3*gemmNR] = s[0], s[1], s[2], s[3]
		}
		for ; r < k; r++ {
			col[r*gemmNR] = src[r]
		}
	}
}

// convTileArgs carries one convolution to convTiles through
// parallelRange. Output pixel (img, oy, ox)'s window starts at
// src[img·image + oy·sh·row + ox·sw] of the padded input, and k-index r
// reads offs[r] past it.
type convTileArgs struct {
	dst, src, w, bias       []float32
	offs                    []int
	row, image, k, panels   int
	n, cout, oh, ow, sh, sw int
}

// convTiles computes the MR-pixel tiles [lo, hi) of the output, pixels
// numbered (img, oy, ox) across the whole batch. A short last tile
// repeats its last pixel's window and stores only its own pixels.
func convTiles(t convTileArgs, lo, hi int) {
	var tile [gemmMR * gemmNR]float32
	var base, out [gemmMR]int // each pixel's window start, and its dst offset at channel 0
	ohw, npix := t.oh*t.ow, t.n*t.oh*t.ow
	q := lo * gemmMR
	img, oy, ox := q/ohw, q%ohw/t.ow, q%t.ow
	for ti := lo; ti < hi; ti++ {
		rows := min(gemmMR, npix-ti*gemmMR)
		for i := range base {
			if i >= rows {
				base[i] = base[rows-1]
				continue
			}
			base[i] = img*t.image + oy*t.sh*t.row + ox*t.sw
			out[i] = img*t.cout*ohw + oy*t.ow + ox
			if ox++; ox == t.ow {
				if ox, oy = 0, oy+1; oy == t.oh {
					oy, img = 0, img+1
				}
			}
		}
		for pn := 0; pn < t.panels; pn++ {
			convKernel(t.k, t.src, &base, t.offs, t.w[pn*t.k*gemmNR:(pn+1)*t.k*gemmNR], &tile)
			co0 := pn * gemmNR
			for j := 0; j < min(gemmNR, t.cout-co0); j++ {
				var b float32
				if t.bias != nil {
					b = t.bias[co0+j]
				}
				d := t.dst[(co0+j)*ohw:]
				for i := 0; i < rows; i++ {
					d[out[i]] = tile[i*gemmNR+j] + b
				}
			}
		}
	}
}

// convKernel sets tile (MR pixels × NR channels, row-major) to the
// window products of one weight panel w: tile[i][j] is +0 followed by
// one multiply-add per k-index r, in order, of src[base[i]+offs[r]] and
// w[r·NR+j].
func convKernel(k int, src []float32, base *[gemmMR]int, offs []int, w []float32, tile *[gemmMR * gemmNR]float32) {
	if useAsmKernel {
		convKernelFMA(k, &src[0], base, &offs[0], &w[0], tile)
		return
	}
	convKernelGo(k, src, base, offs, w, tile)
}

// convKernelGo is the portable twin of convKernelFMA, written as
// gemmKernelGo is so that it accumulates exactly as gemmKernelGo does.
func convKernelGo(k int, src []float32, base *[gemmMR]int, offs []int, w []float32, tile *[gemmMR * gemmNR]float32) {
	var acc [gemmMR][gemmNR]float32
	for r, off := range offs[:k] {
		wr := w[r*gemmNR : r*gemmNR+gemmNR]
		for i := 0; i < gemmMR; i++ {
			xv := src[base[i]+off]
			ci := &acc[i]
			for j := 0; j < gemmNR; j++ {
				ci[j] += xv * wr[j]
			}
		}
	}
	for i := 0; i < gemmMR; i++ {
		copy(tile[i*gemmNR:(i+1)*gemmNR], acc[i][:])
	}
}

// Conv2DBackwardArena computes the gradients of a convolution. gradOut
// is [N,Cout,OH,OW]. It returns gradX ([N,Cin,H,W]) and accumulates
// into gradW and gradB (gradB may be nil when the convolution has no
// bias). needGradX can be false for the first layer to skip the col2im
// pass. All scratch and the returned gradient come from the arena.
func Conv2DBackwardArena(a *Arena, x, weight *Tensor, gradOut *Tensor, p ConvParams, gradW, gradB *Tensor, needGradX bool) *Tensor {
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	hw := oh * ow
	// Reorder gradOut from NCHW to [Cout, N*OH*OW].
	g := a.GetRaw(cout, n*hw)
	parallelRange(n*cout, 1+parallelThreshold/hw, convGradReorderArgs{
		gd: g.data, god: gradOut.data, n: n, cout: cout, hw: hw,
	}, convGradReorder)
	if gradB != nil {
		// Each output channel's bias gradient is an independent row
		// reduction, so the satellite parallelization is over cout.
		parallelRange(cout, 1+parallelThreshold/(n*hw), convGradBArgs{
			gd: g.data, gbd: gradB.data, nhw: n * hw,
		}, convGradB)
	}
	col := Im2ColArena(a, x, p)
	// gradW (+)= g @ colᵀ, accumulated in place by the beta=1 GEMM
	// (dropping the former gw temporary and its extra AXPY pass).
	gemm(gradW.data, g.data, col.data, cout, n*hw, cin*p.KH*p.KW, 1, 1, false, true)
	if !needGradX {
		a.Put(col)
		a.Put(g)
		return nil
	}
	// gradCol = weightᵀ @ g, then scatter with Col2Im.
	gradCol := col // same shape as the im2col matrix: reuse it directly
	gemm(gradCol.data, weight.data, g.data, cin*p.KH*p.KW, cout, n*hw, 1, 0, true, false)
	a.Put(g)
	gx := Col2ImArena(a, gradCol, p, n, cin, h, w)
	a.Put(gradCol)
	return gx
}

type convGradReorderArgs struct {
	gd, god     []float32
	n, cout, hw int
}

func convGradReorder(t convGradReorderArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		b, co := i/t.cout, i%t.cout
		copy(t.gd[co*t.n*t.hw+b*t.hw:co*t.n*t.hw+(b+1)*t.hw], t.god[i*t.hw:(i+1)*t.hw])
	}
}

type convGradBArgs struct {
	gd, gbd []float32
	nhw     int
}

func convGradB(t convGradBArgs, lo, hi int) {
	for co := lo; co < hi; co++ {
		var s float64
		for _, v := range t.gd[co*t.nhw : (co+1)*t.nhw] {
			s += float64(v)
		}
		t.gbd[co] += float32(s)
	}
}
