package tensor

// Winograd fast convolution F(2x2, 3x3) after Lavin & Gray — the
// algorithm §2.2.1 of the paper singles out: cuDNN adopted it to cut a
// 3x3 convolution's arithmetic by 2.25x at the price of extra workspace,
// pushing layers from compute-bound towards memory-bound and shrinking
// the time available to offload intermediate results. This
// implementation serves both as the repository's fast path for 3x3
// stride-1 convolutions and as a concrete exhibit of that trade-off: its
// transformed-input workspace is 4x the input tensor.
//
// Transform matrices (m = 2 output tile, r = 3 kernel):
//
//	Bᵀ = ⎡1  0 -1  0⎤   G = ⎡ 1    0    0 ⎤   Aᵀ = ⎡1 1  1  0⎤
//	     ⎢0  1  1  0⎥       ⎢1/2  1/2  1/2⎥        ⎣0 1 -1 -1⎦
//	     ⎢0 -1  1  0⎥       ⎢1/2 -1/2  1/2⎥
//	     ⎣0  1  0 -1⎦       ⎣ 0    0    1 ⎦

// WinogradApplies reports whether the fast path handles the geometry:
// square 3x3 kernel, stride 1, any padding.
func WinogradApplies(p ConvParams) bool {
	return p.KH == 3 && p.KW == 3 && p.SH == 1 && p.SW == 1
}

// Conv2DWinogradInto computes a 3x3 stride-1 convolution with the
// F(2x2, 3x3) Winograd algorithm into a caller-supplied dst of shape
// [N,Cout,OH,OW]. The transformed-tile workspaces (U, V, M) come from
// the kernel-internal scratch pool. dst must not alias x.
func Conv2DWinogradInto(dst, x, weight, bias *Tensor, p ConvParams) {
	if !WinogradApplies(p) {
		panic("tensor.Conv2DWinograd: geometry not supported")
	}
	n, cin, h, w, oh, ow := p.check(x)
	cout := weight.shape[0]
	if len(dst.data) != n*cout*oh*ow {
		panic("tensor.Conv2DWinogradInto: dst size mismatch")
	}

	// Tile grid over the output: 2x2 tiles.
	th := (oh + 1) / 2
	tw := (ow + 1) / 2
	tiles := n * th * tw // P

	// U[ξν][cout][cin]: transformed filters.
	u := getScratch(16 * cout * cin)
	wd := weight.data
	for co := 0; co < cout; co++ {
		for ci := 0; ci < cin; ci++ {
			g := wd[(co*cin+ci)*9 : (co*cin+ci)*9+9]
			// t = G g  (4x3)
			var t [12]float32
			for col := 0; col < 3; col++ {
				g0, g1, g2 := g[col], g[3+col], g[6+col]
				t[col] = g0
				t[3+col] = 0.5 * (g0 + g1 + g2)
				t[6+col] = 0.5 * (g0 - g1 + g2)
				t[9+col] = g2
			}
			// uTile = t Gᵀ (4x4)
			for row := 0; row < 4; row++ {
				r0, r1, r2 := t[3*row], t[3*row+1], t[3*row+2]
				u[(4*row+0)*cout*cin+co*cin+ci] = r0
				u[(4*row+1)*cout*cin+co*cin+ci] = 0.5 * (r0 + r1 + r2)
				u[(4*row+2)*cout*cin+co*cin+ci] = 0.5 * (r0 - r1 + r2)
				u[(4*row+3)*cout*cin+co*cin+ci] = r2
			}
		}
	}

	// V[ξν][cin][P]: transformed input tiles. Each tile reads a 4x4
	// input window starting at (2·ty − padTop, 2·tx − padLeft).
	v := getScratch(16 * cin * tiles)
	parallelRange(cin, 1+parallelThreshold/(16*tiles), winoInputArgs{
		v: v, xd: x.data, p: p,
		n: n, cin: cin, h: h, w: w, th: th, tw: tw, tiles: tiles,
	}, winoInputTransform)

	// M[ξν] = U[ξν] @ V[ξν]: 16 independent [cout,cin]x[cin,P] products.
	m := getScratch(16 * cout * tiles)
	for xi := 0; xi < 16; xi++ {
		gemm(m[xi*cout*tiles:(xi+1)*cout*tiles],
			u[xi*cout*cin:(xi+1)*cout*cin],
			denseB(v[xi*cin*tiles:(xi+1)*cin*tiles], false),
			cout, cin, tiles, 1, 0, false)
	}
	putScratch(u)
	putScratch(v)

	// Inverse transform: Y = Aᵀ M A per tile, scattered into the output.
	var bd []float32
	if bias != nil {
		bd = bias.data
	}
	parallelRange(cout, 1+parallelThreshold/(16*tiles), winoOutputArgs{
		m: m, od: dst.data, bd: bd,
		n: n, cout: cout, oh: oh, ow: ow, th: th, tw: tw, tiles: tiles,
	}, winoOutputTransform)
	putScratch(m)
}

type winoInputArgs struct {
	v, xd                       []float32
	p                           ConvParams
	n, cin, h, w, th, tw, tiles int
}

func winoInputTransform(t winoInputArgs, lo, hi int) {
	var d [16]float32
	var bt [16]float32
	h, w, th, tw, tiles := t.h, t.w, t.th, t.tw, t.tiles
	for ci := lo; ci < hi; ci++ {
		for b := 0; b < t.n; b++ {
			src := t.xd[(b*t.cin+ci)*h*w : (b*t.cin+ci+1)*h*w]
			for ty := 0; ty < th; ty++ {
				iy0 := 2*ty - t.p.Pad.Top
				for tx := 0; tx < tw; tx++ {
					ix0 := 2*tx - t.p.Pad.Left
					// Gather the 4x4 window (zeros outside).
					for dy := 0; dy < 4; dy++ {
						iy := iy0 + dy
						if iy < 0 || iy >= h {
							d[4*dy], d[4*dy+1], d[4*dy+2], d[4*dy+3] = 0, 0, 0, 0
							continue
						}
						row := src[iy*w:]
						for dx := 0; dx < 4; dx++ {
							ix := ix0 + dx
							if ix < 0 || ix >= w {
								d[4*dy+dx] = 0
							} else {
								d[4*dy+dx] = row[ix]
							}
						}
					}
					// bt = Bᵀ d (rows), then V = bt B (cols).
					for col := 0; col < 4; col++ {
						d0, d1, d2, d3 := d[col], d[4+col], d[8+col], d[12+col]
						bt[col] = d0 - d2
						bt[4+col] = d1 + d2
						bt[8+col] = d2 - d1
						bt[12+col] = d1 - d3
					}
					tile := (b*th+ty)*tw + tx
					for row := 0; row < 4; row++ {
						r0, r1, r2, r3 := bt[4*row], bt[4*row+1], bt[4*row+2], bt[4*row+3]
						t.v[(4*row+0)*t.cin*tiles+ci*tiles+tile] = r0 - r2
						t.v[(4*row+1)*t.cin*tiles+ci*tiles+tile] = r1 + r2
						t.v[(4*row+2)*t.cin*tiles+ci*tiles+tile] = r2 - r1
						t.v[(4*row+3)*t.cin*tiles+ci*tiles+tile] = r1 - r3
					}
				}
			}
		}
	}
}

type winoOutputArgs struct {
	m, od, bd                      []float32
	n, cout, oh, ow, th, tw, tiles int
}

func winoOutputTransform(t winoOutputArgs, lo, hi int) {
	var mt [16]float32
	var at [8]float32
	oh, ow, th, tw, tiles := t.oh, t.ow, t.th, t.tw, t.tiles
	for co := lo; co < hi; co++ {
		var bv float32
		if t.bd != nil {
			bv = t.bd[co]
		}
		for b := 0; b < t.n; b++ {
			dst := t.od[(b*t.cout+co)*oh*ow : (b*t.cout+co+1)*oh*ow]
			for ty := 0; ty < th; ty++ {
				for tx := 0; tx < tw; tx++ {
					tile := (b*th+ty)*tw + tx
					for xi := 0; xi < 16; xi++ {
						mt[xi] = t.m[xi*t.cout*tiles+co*tiles+tile]
					}
					// at = Aᵀ mt (2x4)
					for col := 0; col < 4; col++ {
						m0, m1, m2, m3 := mt[col], mt[4+col], mt[8+col], mt[12+col]
						at[col] = m0 + m1 + m2
						at[4+col] = m1 - m2 - m3
					}
					// y = at A (2x2)
					y00 := at[0] + at[1] + at[2]
					y01 := at[1] - at[2] - at[3]
					y10 := at[4] + at[5] + at[6]
					y11 := at[5] - at[6] - at[7]
					oy, ox := 2*ty, 2*tx
					dst[oy*ow+ox] = y00 + bv
					if ox+1 < ow {
						dst[oy*ow+ox+1] = y01 + bv
					}
					if oy+1 < oh {
						dst[(oy+1)*ow+ox] = y10 + bv
						if ox+1 < ow {
							dst[(oy+1)*ow+ox+1] = y11 + bv
						}
					}
				}
			}
		}
	}
}

// WinogradWorkspaceBytes returns the transformed-tile workspace the
// algorithm uses (U + V + M), the "trades memory space for faster
// computation" cost of §2.2.1.
func WinogradWorkspaceBytes(x Shape, cout int, p ConvParams) int64 {
	oh, ow := p.OutSize(x.H(), x.W())
	tiles := int64(x.N()) * int64((oh+1)/2) * int64((ow+1)/2)
	cin := int64(x.C())
	return 4 * (16*int64(cout)*cin + 16*cin*tiles + 16*int64(cout)*tiles)
}
