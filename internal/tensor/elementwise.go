package tensor

import (
	"fmt"
	"math"
)

func checkSameSize(op string, dst *Tensor, srcs ...*Tensor) {
	for _, s := range srcs {
		if len(s.data) != len(dst.data) {
			panic(fmt.Sprintf("tensor.%s: size mismatch %v vs %v", op, dst.shape, s.shape))
		}
	}
}

// Add writes a + b into dst. All three must have equal element counts;
// dst may alias a or b.
func Add(dst, a, b *Tensor) {
	checkSameSize("Add", dst, a, b)
	da, db, dd := a.data, b.data, dst.data
	for i := range dd {
		dd[i] = da[i] + db[i]
	}
}

// Sub writes a - b into dst.
func Sub(dst, a, b *Tensor) {
	checkSameSize("Sub", dst, a, b)
	da, db, dd := a.data, b.data, dst.data
	for i := range dd {
		dd[i] = da[i] - db[i]
	}
}

// Mul writes the elementwise product a * b into dst.
func Mul(dst, a, b *Tensor) {
	checkSameSize("Mul", dst, a, b)
	da, db, dd := a.data, b.data, dst.data
	for i := range dd {
		dd[i] = da[i] * db[i]
	}
}

// AXPY performs dst += alpha * x.
func AXPY(dst *Tensor, alpha float32, x *Tensor) {
	checkSameSize("AXPY", dst, x)
	dx, dd := x.data, dst.data
	for i := range dd {
		dd[i] += alpha * dx[i]
	}
}

// Scale multiplies every element of dst by alpha in place.
func Scale(dst *Tensor, alpha float32) {
	for i := range dst.data {
		dst.data[i] *= alpha
	}
}

// ReLU writes x > 0 ? x : 0 into dst; dst may alias x. So NaN and −0
// map to +0, and +Inf and positive denormals pass unchanged.
func ReLU(dst, x *Tensor) {
	checkSameSize("ReLU", dst, x)
	dx, dd := x.data, dst.data[:len(x.data)]
	for i, v := range dx {
		b := math.Float32bits(v)
		dd[i] = math.Float32frombits(b & positiveMask(b))
	}
}

// ReLUBackward writes gradOut masked by (out > 0) into gradIn. It uses
// the *output* of the ReLU rather than its input, which is what enables
// the in-place ReLU storage optimization in HMMS (§4.2 of the paper).
func ReLUBackward(gradIn, gradOut, out *Tensor) {
	checkSameSize("ReLUBackward", gradIn, gradOut, out)
	gi, g, o := gradIn.data, gradOut.data[:len(gradIn.data)], out.data[:len(gradIn.data)]
	for i := range gi {
		gi[i] = math.Float32frombits(math.Float32bits(g[i]) & positiveMask(math.Float32bits(o[i])))
	}
}

// positiveMask returns all ones when the float32 with bits b is > 0 and
// zero otherwise, without a branch: a random-signed activation makes
// the branch unpredictable. b > 0 exactly when 1 ≤ b ≤ +Inf's bits
// (0x7F800000), i.e. b−1 < 0x7F800000 unsigned: +0 wraps to the top, and
// NaNs and the sign bit lie above. The 64-bit difference is negative
// exactly then, and its sign bit, shifted down, is the mask.
func positiveMask(b uint32) uint32 {
	return uint32((int64(b-1) - 0x7F800000) >> 63)
}

// Softmax computes a row-wise softmax of a [rows, cols] tensor into dst.
func Softmax(dst, x *Tensor) {
	if len(x.shape) != 2 {
		panic("tensor.Softmax: want rank-2 tensor")
	}
	checkSameSize("Softmax", dst, x)
	rows, cols := x.shape[0], x.shape[1]
	for r := 0; r < rows; r++ {
		in := x.data[r*cols : (r+1)*cols]
		out := dst.data[r*cols : (r+1)*cols]
		maxv := float32(math.Inf(-1))
		for _, v := range in {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i, v := range in {
			e := math.Exp(float64(v - maxv))
			out[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range out {
			out[i] *= inv
		}
	}
}
