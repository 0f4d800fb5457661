package tensor

import (
	"math/rand"
	"testing"
)

func TestShapeBasics(t *testing.T) {
	s := Shape{2, 3, 4, 5}
	if got := s.Elems(); got != 120 {
		t.Fatalf("Elems = %d, want 120", got)
	}
	if got := s.Bytes(); got != 480 {
		t.Fatalf("Bytes = %d, want 480", got)
	}
	if s.N() != 2 || s.C() != 3 || s.H() != 4 || s.W() != 5 {
		t.Fatalf("NCHW accessors wrong: %v", s)
	}
	if !s.Equal(Shape{2, 3, 4, 5}) || s.Equal(Shape{2, 3, 4}) || s.Equal(Shape{2, 3, 4, 6}) {
		t.Fatalf("Equal misbehaves")
	}
	if off := s.Offset(1, 2, 3, 4); off != 1*60+2*20+3*5+4 {
		t.Fatalf("Offset = %d", off)
	}
}

func TestShapeValidate(t *testing.T) {
	if err := (Shape{2, 3}).Validate(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	if err := (Shape{}).Validate(); err == nil {
		t.Fatal("empty shape accepted")
	}
	if err := (Shape{2, 0}).Validate(); err == nil {
		t.Fatal("zero dimension accepted")
	}
	if err := (Shape{-1, 2}).Validate(); err == nil {
		t.Fatal("negative dimension accepted")
	}
}

func TestNewSetAt(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	if got := x.At(0, 0); got != 0 {
		t.Fatalf("zero init violated: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched reshape must panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwise(t *testing.T) {
	a := FromSlice([]float32{1, -2, 3}, 3)
	b := FromSlice([]float32{4, 5, -6}, 3)
	dst := New(3)
	Add(dst, a, b)
	want := []float32{5, 3, -3}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("Add[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
	Sub(dst, a, b)
	want = []float32{-3, -7, 9}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("Sub[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
	Mul(dst, a, b)
	want = []float32{4, -10, -18}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("Mul[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
	dst.Fill(1)
	AXPY(dst, 2, a)
	want = []float32{3, -3, 7}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("AXPY[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
	Scale(dst, 0.5)
	want = []float32{1.5, -1.5, 3.5}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("Scale[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
}

func TestReLUAndBackward(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2}, 3)
	y := New(3)
	ReLU(y, x)
	if y.Data()[0] != 0 || y.Data()[1] != 0 || y.Data()[2] != 2 {
		t.Fatalf("ReLU = %v", y.Data())
	}
	g := FromSlice([]float32{10, 20, 30}, 3)
	gi := New(3)
	ReLUBackward(gi, g, y)
	if gi.Data()[0] != 0 || gi.Data()[1] != 0 || gi.Data()[2] != 30 {
		t.Fatalf("ReLUBackward = %v", gi.Data())
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	y := New(2, 3)
	Softmax(y, x)
	for r := 0; r < 2; r++ {
		var sum float64
		for c := 0; c < 3; c++ {
			v := y.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += float64(v)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	// Large-value row must not produce NaN and should be uniform.
	if d := y.At(1, 0) - y.At(1, 2); d > 1e-6 || d < -1e-6 {
		t.Fatalf("uniform row not uniform: %v", y)
	}
}

func matmulNaive(a, b *Tensor) *Tensor {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			out.Set(float32(acc), i, j)
		}
	}
	return out
}

func TestMatMulVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, k, n := 17, 23, 11
	a := New(m, k)
	b := New(k, n)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	want := matmulNaive(a, b)

	got := New(m, n)
	MatMul(got, a, b)
	if d := MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("MatMul diff %v", d)
	}

	// aT stored as [k, m]
	at := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.Set(a.At(i, p), p, i)
		}
	}
	got2 := New(m, n)
	MatMulAT(got2, at, b)
	if d := MaxAbsDiff(got2, want); d > 1e-4 {
		t.Fatalf("MatMulAT diff %v", d)
	}

	// bT stored as [n, k]
	bt := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.Set(b.At(p, j), j, p)
		}
	}
	got3 := New(m, n)
	MatMulBT(got3, a, bt)
	if d := MaxAbsDiff(got3, want); d > 1e-4 {
		t.Fatalf("MatMulBT diff %v", d)
	}
}

func TestPadUnpadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := New(2, 3, 5, 7)
	x.RandNormal(rng, 1)
	p := Pad2D{Top: 1, Bottom: 2, Left: 3, Right: 0}
	y := PadSpatial(x, p)
	if !y.Shape().Equal(Shape{2, 3, 8, 10}) {
		t.Fatalf("padded shape %v", y.Shape())
	}
	// Border must be zero.
	if y.At(0, 0, 0, 5) != 0 || y.At(1, 2, 7, 2) != 0 || y.At(0, 1, 3, 0) != 0 {
		t.Fatal("padding region not zero")
	}
	back := UnpadSpatial(y, p, 5, 7)
	if d := MaxAbsDiff(back, x); d != 0 {
		t.Fatalf("round-trip diff %v", d)
	}
}

// conv2DNaive is an O(everything) reference implementation used to
// validate the im2col path.
func conv2DNaive(x, w, bias *Tensor, p ConvParams) *Tensor {
	n, cin, h, wd := x.Shape().N(), x.Shape().C(), x.Shape().H(), x.Shape().W()
	cout := w.Shape()[0]
	oh, ow := p.OutSize(h, wd)
	out := New(n, cout, oh, ow)
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					for ci := 0; ci < cin; ci++ {
						for ky := 0; ky < p.KH; ky++ {
							iy := oy*p.SH - p.Pad.Top + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < p.KW; kx++ {
								ix := ox*p.SW - p.Pad.Left + kx
								if ix < 0 || ix >= wd {
									continue
								}
								acc += float64(x.At(b, ci, iy, ix)) * float64(w.At(co, ci, ky, kx))
							}
						}
					}
					if bias != nil {
						acc += float64(bias.Data()[co])
					}
					out.Set(float32(acc), b, co, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		n, cin, h, w, cout int
		p                  ConvParams
	}{
		{2, 3, 8, 8, 4, ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, Pad: Symmetric(1)}},
		{1, 2, 7, 9, 3, ConvParams{KH: 3, KW: 3, SH: 2, SW: 2, Pad: Symmetric(1)}},
		{2, 1, 6, 6, 2, ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}},
		{1, 3, 10, 5, 2, ConvParams{KH: 3, KW: 2, SH: 1, SW: 1, Pad: Pad2D{Top: 2, Bottom: 0, Left: 1, Right: 0}}},
		{1, 2, 5, 5, 2, ConvParams{KH: 5, KW: 5, SH: 1, SW: 1, Pad: Symmetric(2)}},
	}
	for i, c := range cases {
		x := New(c.n, c.cin, c.h, c.w)
		w := New(c.cout, c.cin, c.p.KH, c.p.KW)
		bias := New(c.cout)
		x.RandNormal(rng, 1)
		w.RandNormal(rng, 0.5)
		bias.RandNormal(rng, 0.1)
		want := conv2DNaive(x, w, bias, c.p)
		got := conv2D(x, w, bias, c.p)
		if !got.Shape().Equal(want.Shape()) {
			t.Fatalf("case %d: shape %v want %v", i, got.Shape(), want.Shape())
		}
		if d := MaxAbsDiff(got, want); d > 1e-3 {
			t.Fatalf("case %d: diff %v", i, d)
		}
	}
}

// TestConv2DBackwardNumeric checks analytic conv gradients against
// central finite differences of a scalar loss sum(conv(x, w)).
func TestConv2DBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := ConvParams{KH: 3, KW: 3, SH: 2, SW: 2, Pad: Pad2D{Top: 1, Bottom: 0, Left: 1, Right: 0}}
	x := New(1, 2, 6, 6)
	w := New(3, 2, 3, 3)
	b := New(3)
	x.RandNormal(rng, 1)
	w.RandNormal(rng, 0.5)
	b.RandNormal(rng, 0.1)

	out := conv2D(x, w, b, p)
	gradOut := New(out.Shape()...)
	gradOut.Fill(1) // loss = sum(out)
	gw := New(w.Shape()...)
	gb := New(b.Shape()...)
	gx := Conv2DBackwardArena(nil, x, w, gradOut, p, gw, gb, true)

	lossAt := func() float64 { return conv2D(x, w, b, p).Sum() }
	const eps = 1e-2
	check := func(name string, param, grad *Tensor, probes int) {
		for i := 0; i < probes; i++ {
			idx := rng.Intn(param.Elems())
			orig := param.Data()[idx]
			param.Data()[idx] = orig + eps
			up := lossAt()
			param.Data()[idx] = orig - eps
			down := lossAt()
			param.Data()[idx] = orig
			num := (up - down) / (2 * eps)
			got := float64(grad.Data()[idx])
			if diff := num - got; diff > 0.05 || diff < -0.05 {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, idx, got, num)
			}
		}
	}
	check("x", x, gx, 20)
	check("w", w, gw, 20)
	check("b", b, gb, 3)
}

func TestMaxPoolMatchesManual(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}
	y, arg := maxPool2D(x, p)
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("maxpool[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
	g := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	gi := MaxPool2DBackwardArena(nil, g, arg, p, 1, 1, 4, 4)
	if gi.At(0, 0, 1, 1) != 1 || gi.At(0, 0, 1, 3) != 2 || gi.At(0, 0, 3, 1) != 3 || gi.At(0, 0, 3, 3) != 4 {
		t.Fatalf("maxpool backward wrong: %v", gi.Data())
	}
	if s := gi.Sum(); s != 10 {
		t.Fatalf("grad mass %v, want 10", s)
	}
}

func TestMaxPoolPaddingIgnored(t *testing.T) {
	x := FromSlice([]float32{-5, -6, -7, -8}, 1, 1, 2, 2)
	p := ConvParams{KH: 3, KW: 3, SH: 2, SW: 2, Pad: Symmetric(1)}
	y, _ := maxPool2D(x, p)
	// With -inf padding the max of all-negative input stays negative.
	if y.At(0, 0, 0, 0) != -5 {
		t.Fatalf("padding leaked into max: %v", y.Data())
	}
}

func TestAvgPoolAndBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	p := ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}
	y := avgPool2D(x, p)
	if y.At(0, 0, 0, 0) != 2.5 {
		t.Fatalf("avgpool = %v", y.At(0, 0, 0, 0))
	}
	g := FromSlice([]float32{4}, 1, 1, 1, 1)
	gi := AvgPool2DBackwardArena(nil, g, p, 1, 1, 2, 2)
	for i := 0; i < 4; i++ {
		if gi.Data()[i] != 1 {
			t.Fatalf("avgpool backward = %v", gi.Data())
		}
	}
}

func TestArgmaxRow(t *testing.T) {
	x := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := ArgmaxRow(x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRow = %v", got)
	}
}

func TestIm2ColCol2ImAdjoint(t *testing.T) {
	// <col, Im2Col(x)> == <Col2Im(col), x> must hold for the pair to be
	// true adjoints; verify on random data.
	rng := rand.New(rand.NewSource(7))
	p := ConvParams{KH: 3, KW: 2, SH: 2, SW: 1, Pad: Pad2D{Top: 1, Bottom: 0, Left: 0, Right: 1}}
	x := New(2, 2, 5, 4)
	x.RandNormal(rng, 1)
	cx := Im2ColArena(nil, x, p)
	u := New(cx.Shape()...)
	u.RandNormal(rng, 1)
	lhs := 0.0
	for i, v := range cx.Data() {
		lhs += float64(v) * float64(u.Data()[i])
	}
	back := Col2ImArena(nil, u, p, 2, 2, 5, 4)
	rhs := 0.0
	for i, v := range back.Data() {
		rhs += float64(v) * float64(x.Data()[i])
	}
	if d := lhs - rhs; d > 1e-2 || d < -1e-2 {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}
