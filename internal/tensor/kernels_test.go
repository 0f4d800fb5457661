package tensor

// Value-returning forms of the write-into-dst kernels, for tests that
// just want a result tensor.

func convOut(x, weight *Tensor, p ConvParams) *Tensor {
	n, _, _, _, oh, ow := p.check(x)
	return New(n, weight.shape[0], oh, ow)
}

func conv2D(x, weight, bias *Tensor, p ConvParams) *Tensor {
	out := convOut(x, weight, p)
	Conv2DInto(nil, out, x, weight, bias, p)
	return out
}

func maxPool2D(x *Tensor, p ConvParams) (out, arg *Tensor) {
	n, c, _, _, oh, ow := p.check(x)
	out, arg = New(n, c, oh, ow), New(n, c, oh, ow)
	MaxPool2DInto(out, arg, x, p)
	return out, arg
}

func avgPool2D(x *Tensor, p ConvParams) *Tensor {
	n, c, _, _, oh, ow := p.check(x)
	out := New(n, c, oh, ow)
	AvgPool2DInto(out, x, p)
	return out
}
