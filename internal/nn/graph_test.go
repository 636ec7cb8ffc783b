package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// checkOp gradient-checks a scalar-producing graph over one parameter.
func checkOp(t *testing.T, name string, p *Param, build func(tp *Tape) *Node) {
	t.Helper()
	f := func() float64 {
		tp := NewTape()
		return build(tp).Value.Data[0]
	}
	fb := func() {
		tp := NewTape()
		tp.Backward(build(tp))
	}
	if _, err := GradCheck([]*Param{p}, f, fb, 1e-5); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestGradAdd(t *testing.T) {
	p := newParam("p", uniformConst(2, 3, 0.3))
	c := uniformConst(2, 3, 0.7)
	checkOp(t, "Add", p, func(tp *Tape) *Node {
		return tp.Sum(tp.Add(tp.Use(p), tp.Constant(c)))
	})
}

func TestGradSub(t *testing.T) {
	p := newParam("p", uniformConst(2, 3, 0.4))
	c := uniformConst(2, 3, 0.9)
	checkOp(t, "Sub", p, func(tp *Tape) *Node {
		return tp.Sum(tp.Sub(tp.Constant(c), tp.Use(p)))
	})
}

func TestGradMul(t *testing.T) {
	p := newParam("p", uniformConst(2, 3, 0.5))
	c := uniformConst(2, 3, 0.2)
	checkOp(t, "Mul", p, func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.Use(p), tp.Constant(c)))
	})
}

func TestGradMulBothSides(t *testing.T) {
	a := newParam("a", uniformConst(2, 2, 0.11))
	b := newParam("b", uniformConst(2, 2, 0.77))
	f := func() float64 {
		tp := NewTape()
		return tp.Sum(tp.Mul(tp.Use(a), tp.Use(b))).Value.Data[0]
	}
	fb := func() {
		tp := NewTape()
		tp.Backward(tp.Sum(tp.Mul(tp.Use(a), tp.Use(b))))
	}
	if _, err := GradCheck([]*Param{a, b}, f, fb, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestGradMatMul(t *testing.T) {
	a := newParam("a", uniformConst(2, 3, 0.13))
	b := newParam("b", uniformConst(3, 4, 0.57))
	build := func(tp *Tape) *Node {
		return tp.Sum(tp.MatMul(tp.Use(a), tp.Use(b)))
	}
	f := func() float64 { tp := NewTape(); return build(tp).Value.Data[0] }
	fb := func() { tp := NewTape(); tp.Backward(build(tp)) }
	if _, err := GradCheck([]*Param{a, b}, f, fb, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestGradTranspose(t *testing.T) {
	p := newParam("p", uniformConst(2, 3, 0.31))
	c := uniformConst(2, 3, 0.5)
	checkOp(t, "Transpose", p, func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.Transpose(tp.Use(p)), tp.Constant(c.T())))
	})
}

func TestGradScale(t *testing.T) {
	p := newParam("p", uniformConst(2, 2, 0.21))
	checkOp(t, "Scale", p, func(tp *Tape) *Node {
		return tp.Sum(tp.Scale(tp.Use(p), -1.7))
	})
}

func TestGradAddRowBroadcast(t *testing.T) {
	x := newParam("x", uniformConst(3, 4, 0.15))
	b := newParam("b", uniformConst(1, 4, 0.85))
	build := func(tp *Tape) *Node {
		return tp.Sum(tp.sigmoid(tp.addRowBroadcast(tp.Use(x), tp.Use(b))))
	}
	f := func() float64 { tp := NewTape(); return build(tp).Value.Data[0] }
	fb := func() { tp := NewTape(); tp.Backward(build(tp)) }
	if _, err := GradCheck([]*Param{x, b}, f, fb, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestGradConcatColsAndSlice(t *testing.T) {
	a := newParam("a", uniformConst(2, 2, 0.41))
	b := newParam("b", uniformConst(2, 3, 0.61))
	build := func(tp *Tape) *Node {
		cc := tp.ConcatCols(tp.Use(a), tp.Use(b))
		return tp.Sum(tp.Tanh(tp.sliceCols(cc, 1, 4)))
	}
	f := func() float64 { tp := NewTape(); return build(tp).Value.Data[0] }
	fb := func() { tp := NewTape(); tp.Backward(build(tp)) }
	if _, err := GradCheck([]*Param{a, b}, f, fb, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestGradConcatRowsAndSliceRows(t *testing.T) {
	a := newParam("a", uniformConst(2, 3, 0.43))
	b := newParam("b", uniformConst(1, 3, 0.67))
	build := func(tp *Tape) *Node {
		cr := tp.ConcatRows(tp.Use(a), tp.Use(b))
		return tp.Sum(tp.sigmoid(tp.SliceRows(cr, 1, 3)))
	}
	f := func() float64 { tp := NewTape(); return build(tp).Value.Data[0] }
	fb := func() { tp := NewTape(); tp.Backward(build(tp)) }
	if _, err := GradCheck([]*Param{a, b}, f, fb, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestGradActivations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(tp *Tape, x *Node) *Node
	}{
		{"Sigmoid", func(tp *Tape, x *Node) *Node { return tp.sigmoid(x) }},
		{"Tanh", func(tp *Tape, x *Node) *Node { return tp.Tanh(x) }},
		{"Softplus", func(tp *Tape, x *Node) *Node { return tp.Softplus(x) }},
	} {
		p := newParam("p", uniformConst(2, 3, 0.37))
		checkOp(t, tc.name, p, func(tp *Tape) *Node {
			return tp.Sum(tc.apply(tp, tp.Use(p)))
		})
	}
}

func TestGradReLU(t *testing.T) {
	// Keep values away from the kink at 0.
	v := uniformConst(2, 3, 0.47)
	for i := range v.Data {
		if math.Abs(v.Data[i]) < 0.05 {
			v.Data[i] = 0.1
		}
	}
	p := newParam("p", v)
	checkOp(t, "ReLU", p, func(tp *Tape) *Node {
		return tp.Sum(tp.relu(tp.Use(p)))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	p := newParam("p", uniformConst(3, 4, 0.53))
	c := uniformConst(3, 4, 0.29)
	checkOp(t, "SoftmaxRows", p, func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.SoftmaxRows(tp.Use(p)), tp.Constant(c)))
	})
}

func TestGradMeanAndMeanRows(t *testing.T) {
	p := newParam("p", uniformConst(3, 2, 0.59))
	checkOp(t, "Mean", p, func(tp *Tape) *Node {
		return tp.Mean(tp.Use(p))
	})
	c := uniformConst(1, 2, 0.9)
	checkOp(t, "MeanRows", p, func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.MeanRows(tp.Use(p)), tp.Constant(c)))
	})
}

func TestGradSigmoidBCE(t *testing.T) {
	p := newParam("p", uniformConst(4, 1, 0.71))
	targets := []float64{1, 0, 1, 0}
	checkOp(t, "SigmoidBCE", p, func(tp *Tape) *Node {
		return tp.SigmoidBCE(tp.Use(p), targets)
	})
}

func TestSigmoidBCEStability(t *testing.T) {
	// Extreme logits must not produce NaN/Inf.
	tp := NewTape()
	logits := tp.Constant(mat.ColVector([]float64{1000, -1000}))
	loss := tp.SigmoidBCE(logits, []float64{1, 0})
	if v := loss.Value.Data[0]; math.IsNaN(v) || math.IsInf(v, 0) || v > 1e-6 {
		t.Fatalf("extreme-logit BCE = %v, want ~0", v)
	}
	tp2 := NewTape()
	logits2 := tp2.Constant(mat.ColVector([]float64{-1000}))
	loss2 := tp2.SigmoidBCE(logits2, []float64{1})
	if v := loss2.Value.Data[0]; math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("wrong-side extreme logit BCE = %v", v)
	}
}

func TestGradLayerNorm(t *testing.T) {
	x := newParam("x", uniformConst(3, 4, 0.23))
	g := newParam("g", uniformConst(1, 4, 0.91))
	b := newParam("b", uniformConst(1, 4, 0.17))
	c := uniformConst(3, 4, 0.63)
	build := func(tp *Tape) *Node {
		return tp.Sum(tp.Mul(tp.layerNormRows(tp.Use(x), tp.Use(g), tp.Use(b)), tp.Constant(c)))
	}
	f := func() float64 { tp := NewTape(); return build(tp).Value.Data[0] }
	fb := func() { tp := NewTape(); tp.Backward(build(tp)) }
	if _, err := GradCheck([]*Param{x, g, b}, f, fb, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardRequires1x1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar did not panic")
		}
	}()
	tp := NewTape()
	n := tp.Constant(mat.New(2, 2))
	tp.Backward(n)
}

func TestParamGradAccumulation(t *testing.T) {
	p := newParam("p", mat.FromSlice(1, 1, []float64{2}))
	for i := 0; i < 3; i++ {
		tp := NewTape()
		tp.Backward(tp.Sum(tp.Use(p)))
	}
	if got := p.Grad.Data[0]; got != 3 {
		t.Fatalf("gradient accumulated to %v, want 3 (one per backward pass)", got)
	}
	p.zeroGrad()
	if p.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	p := newParam("p", uniformConst(1, 5, 0.87))
	checkOp(t, "SoftmaxCrossEntropy", p, func(tp *Tape) *Node {
		return tp.SoftmaxCrossEntropy(tp.Use(p), 2)
	})
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	tp := NewTape()
	logits := tp.Constant(mat.RowVector([]float64{1000, -1000, 0}))
	loss := tp.SoftmaxCrossEntropy(logits, 0)
	if v := loss.Value.Data[0]; math.IsNaN(v) || math.IsInf(v, 0) || v > 1e-6 {
		t.Fatalf("dominant-logit CE = %v, want ~0", v)
	}
}
