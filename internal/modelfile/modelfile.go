// Package modelfile parses a small text format describing sequential
// CNNs, so the CLI (and downstream users) can run the Split-CNN + HMMS
// pipeline on custom architectures without writing Go. The format is
// line-oriented; '#' starts a comment. Example:
//
//	# a small VGG-ish network
//	input 3 32 32
//	conv 64 k3 s1 p1
//	bn
//	relu
//	conv 64 k3 s1 p1
//	bn
//	relu
//	pool max k2 s2
//	gap            # global average pooling
//	flatten
//	dropout 0.5
//	linear 10
//
// Directives:
//
//	input C H W              input image planes (required first)
//	conv OUT [kK] [sS] [pP]  convolution (defaults k3 s1 p=k/2)
//	pool max|avg [kK] [sS]   pooling (defaults k2 s2)
//	bn                       batch normalization after the previous layer
//	bnrelu                   fused memory-efficient BN + leaky ReLU
//	relu                     rectified linear unit
//	dropout P                dropout with keep probability 1-P
//	gap                      global average pooling
//	flatten                  NCHW -> (N, CHW)
//	linear OUT               fully connected layer
//
// The final linear layer's width is the class count; a softmax
// cross-entropy loss over a "labels" input is attached automatically.
package modelfile

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"splitcnn/internal/graph"
	"splitcnn/internal/models"
	"splitcnn/internal/nn"
	"splitcnn/internal/tensor"
)

// maxSize bounds every number a description names (input dimensions,
// channel counts, widths, kernel, stride and padding): building the
// graph allocates per-channel state, so an absurd number is an error
// rather than an allocation.
const maxSize = 1 << 16

// Parse reads a model description and builds its computation graph for
// the given batch size.
func Parse(r io.Reader, batch int) (*models.Model, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("modelfile: batch %d", batch)
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	var g *graph.Graph
	var cur *graph.Node
	var labels *graph.Node
	m := &models.Model{Name: "custom", BNStates: map[string]*nn.BNState{}}
	names := map[string]int{}
	unique := func(kind string) string {
		names[kind]++
		return fmt.Sprintf("%s%d", kind, names[kind])
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("modelfile: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		op, args := fields[0], fields[1:]
		if g == nil && op != "input" {
			return nil, fail("first directive must be 'input C H W'")
		}
		switch op {
		case "input":
			if g != nil {
				return nil, fail("duplicate input directive")
			}
			dims, err := ints(args, 3)
			if err != nil {
				return nil, fail("input: %v", err)
			}
			g = graph.New()
			m.Graph = g
			m.Input = g.Input("image", tensor.Shape{batch, dims[0], dims[1], dims[2]})
			labels = g.Input("labels", tensor.Shape{batch})
			m.Labels = labels
			cur = m.Input
		case "conv":
			if len(args) < 1 {
				return nil, fail("conv: want output channels")
			}
			out, err := strconv.Atoi(args[0])
			if err != nil || out <= 0 || out > maxSize {
				return nil, fail("conv: bad channel count %q", args[0])
			}
			k, s, p := 3, 1, -1
			for _, a := range args[1:] {
				v, err := prefixed(a)
				if err != nil {
					return nil, fail("conv: %v", err)
				}
				switch a[0] {
				case 'k':
					k = v
				case 's':
					s = v
				case 'p':
					p = v
				default:
					return nil, fail("conv: unknown option %q", a)
				}
			}
			if k < 1 || s < 1 {
				return nil, fail("conv: kernel and stride must be >= 1")
			}
			if p < 0 {
				p = k / 2
			}
			name := unique("conv")
			w := g.Param(name+".w", tensor.Shape{out, cur.Shape.C(), k, k})
			b := g.Param(name+".b", tensor.Shape{out})
			var node *graph.Node
			if err := catch(func() { node = g.Add(name, nn.NewConv(k, s, p), cur, w, b) }); err != nil {
				return nil, fail("conv: %v", err)
			}
			cur = node
			m.ConvNames = append(m.ConvNames, name)
		case "pool":
			if len(args) < 1 || (args[0] != "max" && args[0] != "avg") {
				return nil, fail("pool: want 'max' or 'avg'")
			}
			k, s := 2, 2
			for _, a := range args[1:] {
				v, err := prefixed(a)
				if err != nil {
					return nil, fail("pool: %v", err)
				}
				switch a[0] {
				case 'k':
					k = v
				case 's':
					s = v
				default:
					return nil, fail("pool: unknown option %q", a)
				}
			}
			if k < 1 || s < 1 {
				return nil, fail("pool: kernel and stride must be >= 1")
			}
			name := unique("pool")
			var opNode graph.Op
			if args[0] == "max" {
				opNode = nn.NewMaxPool(k, s)
			} else {
				opNode = nn.NewAvgPool(k, s)
			}
			var node *graph.Node
			if err := catch(func() { node = g.Add(name, opNode, cur) }); err != nil {
				return nil, fail("pool: %v", err)
			}
			cur = node
		case "bn", "bnrelu":
			if len(cur.Shape) != 4 {
				return nil, fail("%s: needs an NCHW input", op)
			}
			c := cur.Shape.C()
			name := unique(op)
			st := nn.NewBNState(name, c)
			m.BNStates[name] = st
			gamma := g.Param(name+".gamma", tensor.Shape{c})
			beta := g.Param(name+".beta", tensor.Shape{c})
			var opNode graph.Op
			if op == "bn" {
				opNode = nn.NewBatchNorm(st)
			} else {
				opNode = nn.NewBNReLU(st)
			}
			cur = g.Add(name, opNode, cur, gamma, beta)
		case "relu":
			cur = g.Add(unique("relu"), nn.ReLU{}, cur)
		case "dropout":
			if len(args) != 1 {
				return nil, fail("dropout: want probability")
			}
			p, err := strconv.ParseFloat(args[0], 64)
			if err != nil || p < 0 || p >= 1 {
				return nil, fail("dropout: bad probability %q", args[0])
			}
			cur = g.Add(unique("dropout"), &nn.Dropout{P: p, Training: true, Rng: rand.New(rand.NewSource(int64(lineNo)))}, cur)
		case "gap":
			var node *graph.Node
			if err := catch(func() { node = g.Add(unique("gap"), nn.GlobalAvgPool{}, cur) }); err != nil {
				return nil, fail("gap: %v", err)
			}
			cur = node
		case "flatten":
			cur = g.Add(unique("flatten"), nn.Flatten{}, cur)
		case "linear":
			if len(args) != 1 {
				return nil, fail("linear: want output width")
			}
			out, err := strconv.Atoi(args[0])
			if err != nil || out <= 0 || out > maxSize {
				return nil, fail("linear: bad width %q", args[0])
			}
			if len(cur.Shape) != 2 {
				return nil, fail("linear: flatten first (input is %v)", cur.Shape)
			}
			name := unique("fc")
			w := g.Param(name+".w", tensor.Shape{out, cur.Shape[1]})
			b := g.Param(name+".b", tensor.Shape{out})
			cur = g.Add(name, nn.Linear{}, cur, w, b)
			m.Classes = out
		default:
			return nil, fail("unknown directive %q", op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("modelfile: empty description")
	}
	if m.Classes == 0 || len(cur.Shape) != 2 {
		return nil, fmt.Errorf("modelfile: description must end with a linear classifier")
	}
	m.Logits = cur
	m.Loss = g.Add("loss", nn.SoftmaxCrossEntropy{}, cur, labels)
	g.SetOutput(m.Loss)
	return m, nil
}

// ParseString is Parse over a string.
func ParseString(s string, batch int) (*models.Model, error) {
	return Parse(strings.NewReader(s), batch)
}

func ints(args []string, n int) ([]int, error) {
	if len(args) != n {
		return nil, fmt.Errorf("want %d integers, got %d", n, len(args))
	}
	out := make([]int, n)
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil || v <= 0 || v > maxSize {
			return nil, fmt.Errorf("bad value %q", a)
		}
		out[i] = v
	}
	return out, nil
}

// prefixed parses "k3" style options.
func prefixed(a string) (int, error) {
	if len(a) < 2 {
		return 0, fmt.Errorf("bad option %q", a)
	}
	v, err := strconv.Atoi(a[1:])
	if err != nil || v < 0 || v > maxSize {
		return 0, fmt.Errorf("bad option %q", a)
	}
	return v, nil
}

// catch converts graph-construction panics (shape errors) into errors.
func catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}
