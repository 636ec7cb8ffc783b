package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func gradCheckModel(t *testing.T, name string, ps *ParamSet, build func(tp *Tape) *Node) {
	t.Helper()
	f := func() float64 { tp := NewTape(); return build(tp).Value.Data[0] }
	fb := func() { tp := NewTape(); tp.Backward(build(tp)) }
	if _, err := GradCheck(ps.All(), f, fb, 1e-5); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestDenseShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := NewParamSet()
	d := NewDense(ps, "d", 3, 2, Tanh, rng)
	x := uniformConst(4, 3, 0.33)
	tp := NewTape()
	y := d.Forward(tp, tp.Constant(x))
	if y.Value.Rows != 4 || y.Value.Cols != 2 {
		t.Fatalf("Dense output %dx%d, want 4x2", y.Value.Rows, y.Value.Cols)
	}
	gradCheckModel(t, "Dense", ps, func(tp *Tape) *Node {
		return tp.Sum(d.Forward(tp, tp.Constant(x)))
	})
}

func TestMLPGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := NewParamSet()
	m := NewMLP(ps, "m", []int{3, 5, 1}, Tanh, Linear, rng)
	x := uniformConst(2, 3, 0.71)
	gradCheckModel(t, "MLP", ps, func(tp *Tape) *Node {
		return tp.Sum(m.Forward(tp, tp.Constant(x)))
	})
}

func TestMLPTooFewSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMLP([4]) did not panic")
		}
	}()
	NewMLP(NewParamSet(), "m", []int{4}, ReLU, Linear, rand.New(rand.NewSource(1)))
}

func TestLSTMGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := NewParamSet()
	l := NewLSTM(ps, "lstm", 3, 4, rng)
	seq := uniformConst(4, 3, 0.27)
	gradCheckModel(t, "LSTM", ps, func(tp *Tape) *Node {
		return tp.Sum(l.Forward(tp, tp.Constant(seq)))
	})
}

func TestLSTMLastEqualsFinalState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ps := NewParamSet()
	l := NewLSTM(ps, "lstm", 2, 3, rng)
	seq := uniformConst(5, 2, 0.81)
	tp := NewTape()
	all := l.Forward(tp, tp.Constant(seq))
	tp2 := NewTape()
	last := l.Last(tp2, tp2.Constant(seq))
	if !last.Value.EqualApprox(all.Value.SliceRows(4, 5), 1e-12) {
		t.Fatal("Last != final row of Forward")
	}
}

func TestLSTMEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ps := NewParamSet()
	l := NewLSTM(ps, "lstm", 2, 3, rng)
	tp := NewTape()
	out := l.Forward(tp, tp.Constant(mat.New(0, 2)))
	if out.Value.Rows != 0 || out.Value.Cols != 3 {
		t.Fatalf("empty LSTM output %dx%d", out.Value.Rows, out.Value.Cols)
	}
	last := l.Last(tp, tp.Constant(mat.New(0, 2)))
	if last.Value.Rows != 1 || last.Value.MaxAbs() != 0 {
		t.Fatal("empty-sequence Last should be the zero state")
	}
}

func TestBiLSTMGradAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ps := NewParamSet()
	b := NewBiLSTM(ps, "bi", 2, 3, rng)
	seq := uniformConst(3, 2, 0.19)
	tp := NewTape()
	out := b.Forward(tp, tp.Constant(seq))
	if out.Value.Rows != 3 || out.Value.Cols != 6 {
		t.Fatalf("BiLSTM output %dx%d, want 3x6", out.Value.Rows, out.Value.Cols)
	}
	gradCheckModel(t, "BiLSTM", ps, func(tp *Tape) *Node {
		return tp.Sum(b.Forward(tp, tp.Constant(seq)))
	})
}

func TestBiLSTMBackwardDirectionMatters(t *testing.T) {
	// Reversing the input sequence must change the output (the backward
	// pass actually reads the future).
	rng := rand.New(rand.NewSource(7))
	ps := NewParamSet()
	b := NewBiLSTM(ps, "bi", 2, 3, rng)
	seq := uniformConst(4, 2, 0.39)
	rev := mat.New(4, 2)
	for i := 0; i < 4; i++ {
		copy(rev.Row(i), seq.Row(3-i))
	}
	tp := NewTape()
	o1 := b.Forward(tp, tp.Constant(seq))
	o2 := b.Forward(tp, tp.Constant(rev))
	if o1.Value.EqualApprox(o2.Value, 1e-9) {
		t.Fatal("BiLSTM is order-invariant; backward pass broken")
	}
}

func TestGRUGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := NewParamSet()
	g := NewGRU(ps, "gru", 3, 4, rng)
	seq := uniformConst(3, 3, 0.49)
	gradCheckModel(t, "GRU", ps, func(tp *Tape) *Node {
		return tp.Sum(g.Forward(tp, tp.Constant(seq)))
	})
}

func TestSelfAttentionShapeAndGrad(t *testing.T) {
	// Eq. (2): parameter-free self-attention. Check through a parameter
	// upstream of it.
	ps := NewParamSet()
	p := ps.New("x", uniformConst(3, 4, 0.61))
	gradCheckModel(t, "SelfAttention", ps, func(tp *Tape) *Node {
		return tp.Sum(SelfAttention(tp, tp.Use(p)))
	})
}

func TestAttentionHeadGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := NewParamSet()
	h := NewAttentionHead(ps, "h", 4, 3, rng)
	x := uniformConst(3, 4, 0.77)
	gradCheckModel(t, "AttentionHead", ps, func(tp *Tape) *Node {
		return tp.Sum(h.Forward(tp, tp.Constant(x), nil))
	})
}

func TestAttentionCausalMask(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ps := NewParamSet()
	h := NewAttentionHead(ps, "h", 3, 3, rng)
	// With a causal mask, changing a later row must not affect an earlier
	// row's output.
	x1 := uniformConst(4, 3, 0.55)
	x2 := x1.Clone()
	x2.Set(3, 0, x2.At(3, 0)+5) // perturb the last position
	tp := NewTape()
	o1 := h.Forward(tp, tp.Constant(x1), CausalMask(4))
	o2 := h.Forward(tp, tp.Constant(x2), CausalMask(4))
	for i := 0; i < 3; i++ { // all but the last row must match
		for j := 0; j < 3; j++ {
			if d := o1.Value.At(i, j) - o2.Value.At(i, j); d > 1e-9 || d < -1e-9 {
				t.Fatalf("causal mask leaked future info at row %d", i)
			}
		}
	}
}

func TestMultiHeadAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := NewParamSet()
	m := NewMultiHeadAttention(ps, "mha", 4, 2, rng)
	x := uniformConst(3, 4, 0.37)
	gradCheckModel(t, "MultiHeadAttention", ps, func(tp *Tape) *Node {
		return tp.Sum(m.Forward(tp, tp.Constant(x), nil))
	})
}

func TestMultiHeadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible head count did not panic")
		}
	}()
	NewMultiHeadAttention(NewParamSet(), "m", 5, 2, rand.New(rand.NewSource(1)))
}

func TestTransformerBlockGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ps := NewParamSet()
	b := NewTransformerBlock(ps, "tb", 4, 2, 8, rng)
	x := uniformConst(3, 4, 0.83)
	gradCheckModel(t, "TransformerBlock", ps, func(tp *Tape) *Node {
		return tp.Sum(b.Forward(tp, tp.Constant(x), nil))
	})
}

func TestBandMask(t *testing.T) {
	m := BandMask(5, 1)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			masked := m.At(i, j) < -1
			wantMasked := j < i-1 || j > i+1
			if masked != wantMasked {
				t.Fatalf("BandMask(5,1)[%d][%d] masked=%v want %v", i, j, masked, wantMasked)
			}
		}
	}
}

func TestParamSetDuplicatePanics(t *testing.T) {
	ps := NewParamSet()
	ps.New("w", mat.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate param name did not panic")
		}
	}()
	ps.New("w", mat.New(1, 1))
}

func TestClipGradNorm(t *testing.T) {
	ps := NewParamSet()
	p := ps.New("p", mat.New(1, 2))
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4 // norm 5
	pre := ps.ClipGradNorm(1)
	if pre < 4.99 || pre > 5.01 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	if n := mat.NormVec(p.Grad.Data); n < 0.99 || n > 1.01 {
		t.Fatalf("post-clip norm %v, want 1", n)
	}
	// Below the threshold: untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 0.3, 0.4
	ps.ClipGradNorm(1)
	if p.Grad.Data[0] != 0.3 {
		t.Fatal("clip rescaled a small gradient")
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// A tiny regression: y = 2x − 1 learned by a single Dense layer.
	rng := rand.New(rand.NewSource(13))
	ps := NewParamSet()
	d := NewDense(ps, "d", 1, 1, Linear, rng)
	opt := NewAdam(0.05)
	lossAt := func() float64 {
		tp := NewTape()
		x := tp.Constant(mat.ColVector([]float64{-1, 0, 1, 2}))
		y := d.Forward(tp, x)
		want := tp.Constant(mat.ColVector([]float64{-3, -1, 1, 3}))
		diff := tp.Sub(y, want)
		return tp.Mean(tp.Mul(diff, diff)).Value.Data[0]
	}
	before := lossAt()
	for i := 0; i < 200; i++ {
		tp := NewTape()
		x := tp.Constant(mat.ColVector([]float64{-1, 0, 1, 2}))
		y := d.Forward(tp, x)
		want := tp.Constant(mat.ColVector([]float64{-3, -1, 1, 3}))
		diff := tp.Sub(y, want)
		tp.Backward(tp.Mean(tp.Mul(diff, diff)))
		opt.Step(ps.All())
	}
	after := lossAt()
	if after > before/10 || after > 0.05 {
		t.Fatalf("Adam failed to fit line: loss %v → %v", before, after)
	}
	if w := d.W.Value.At(0, 0); w < 1.5 || w > 2.5 {
		t.Fatalf("learned slope %v, want ≈2", w)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ps := NewParamSet()
	NewMLP(ps, "m", []int{3, 4, 2}, Tanh, Linear, rng)
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ps2 := NewParamSet()
	NewMLP(ps2, "m", []int{3, 4, 2}, Tanh, Linear, rand.New(rand.NewSource(99)))
	if err := ps2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps.All() {
		q := ps2.get(p.Name)
		if q == nil || !q.Value.EqualApprox(p.Value, 0) {
			t.Fatalf("param %s not restored", p.Name)
		}
	}
}

func TestSerializeShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ps := NewParamSet()
	NewDense(ps, "d", 3, 2, Linear, rng)
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ps2 := NewParamSet()
	NewDense(ps2, "d", 3, 5, Linear, rng) // different shape
	if err := ps2.Load(&buf); err == nil {
		t.Fatal("Load accepted a shape mismatch")
	}
}

func TestCrossForwardGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ps := NewParamSet()
	h := NewAttentionHead(ps, "x", 3, 2, rng)
	q := uniformConst(2, 3, 0.21)
	kv := uniformConst(4, 3, 0.83)
	gradCheckModel(t, "CrossForward", ps, func(tp *Tape) *Node {
		return tp.Sum(h.CrossForward(tp, tp.Constant(q), tp.Constant(kv)))
	})
}

func TestUseAliasesParamGrad(t *testing.T) {
	// Tape.Use must alias the parameter's gradient buffer, so gradients
	// survive across multiple tapes until the optimizer consumes them.
	p := newParam("p", uniformConst(1, 2, 0.4))
	tp := NewTape()
	n := tp.Use(p)
	if n.Grad != p.Grad {
		t.Fatal("Use did not alias the param gradient")
	}
	tp.Backward(tp.Sum(n))
	if p.Grad.Data[0] != 1 || p.Grad.Data[1] != 1 {
		t.Fatalf("gradient not accumulated into param: %v", p.Grad.Data)
	}
}
