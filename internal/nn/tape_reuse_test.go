package nn

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// buildSmallNet runs a tiny MLP forward/backward on t and returns the loss.
func buildSmallNet(t *Tape, w1, b1, w2 *Param, x *mat.Matrix, targets []float64) float64 {
	h := t.Tanh(t.addRowBroadcast(t.MatMul(t.Constant(x), t.Use(w1)), t.Use(b1)))
	logits := t.MatMul(h, t.Use(w2))
	loss := t.SigmoidBCE(logits, targets)
	t.Backward(loss)
	return loss.Value.Data[0]
}

func TestTapeResetReproducesGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ps := NewParamSet()
	w1 := ps.New("w1", mat.XavierUniform(4, 6, rng))
	b1 := ps.New("b1", mat.New(1, 6))
	w2 := ps.New("w2", mat.XavierUniform(6, 1, rng))
	x := mat.RandNormal(3, 4, 0, 1, rng)
	targets := []float64{1, 0, 1}

	// Reference pass on a throwaway tape.
	wantLoss := buildSmallNet(NewTape(), w1, b1, w2, x, targets)
	wantGrads := make([]*mat.Matrix, 0, 3)
	for _, p := range ps.All() {
		wantGrads = append(wantGrads, p.Grad.Clone())
	}

	// A reused tape — after unrelated work plus Reset — must produce
	// bitwise-identical losses and gradients on recycled buffers.
	tape := NewTape()
	buildSmallNet(tape, w1, b1, w2, mat.RandNormal(5, 4, 0, 1, rng), []float64{0, 1, 0, 1, 0})
	for pass := 0; pass < 3; pass++ {
		tape.Reset()
		ps.ZeroGrad()
		got := buildSmallNet(tape, w1, b1, w2, x, targets)
		if got != wantLoss {
			t.Fatalf("pass %d: loss %v != fresh-tape loss %v", pass, got, wantLoss)
		}
		for i, p := range ps.All() {
			if !p.Grad.EqualApprox(wantGrads[i], 0) {
				t.Fatalf("pass %d: grad %s differs after tape reuse", pass, p.Name)
			}
		}
	}
}

func TestTapeReuseSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := NewParamSet()
	w1 := ps.New("w1", mat.XavierUniform(4, 6, rng))
	b1 := ps.New("b1", mat.New(1, 6))
	w2 := ps.New("w2", mat.XavierUniform(6, 1, rng))
	x := mat.RandNormal(3, 4, 0, 1, rng)
	targets := []float64{1, 0, 1}

	// The recurrences: a Bi-LSTM over a 5-step list and LSTM.Last over a
	// 3-step sequence, the two forms RAPID trains.
	bi := NewBiLSTM(ps, "bi", 4, 3, rng)
	last := NewLSTM(ps, "last", 4, 3, rng)
	list, hist := mat.RandNormal(5, 4, 0, 1, rng), mat.RandNormal(3, 4, 0, 1, rng)
	recurrent := func(tape *Tape) {
		loss := tape.Add(tape.Sum(bi.Forward(tape, tape.Constant(list))), tape.Sum(last.Last(tape, tape.Constant(hist))))
		tape.Backward(loss)
	}

	tape := NewTape()
	pass := func() {
		tape.Reset()
		buildSmallNet(tape, w1, b1, w2, x, targets)
		tape.Reset()
		recurrent(tape)
	}
	pass() // warm the pool
	allocs := testing.AllocsPerRun(50, pass)
	// Steady state should be near-zero; leave headroom for the runtime's
	// occasional map/stack noise but fail loudly on per-op churn (~30 nodes).
	if allocs > 4 {
		t.Fatalf("steady-state tape reuse allocates %.0f objects per pass, want <= 4", allocs)
	}
}

func TestConstantGradStaysNil(t *testing.T) {
	tape := NewTape()
	ps := NewParamSet()
	w := ps.New("w", mat.FromRows([][]float64{{0.5, -0.25}}))
	c := tape.Constant(mat.FromRows([][]float64{{1, 2}, {3, 4}}))
	loss := tape.Sum(tape.MatMul(c, tape.Transpose(tape.Use(w))))
	tape.Backward(loss)
	if c.Grad != nil {
		t.Fatal("Constant node grew a gradient buffer; it should stay nil")
	}
	if w.Grad.Data[0] == 0 && w.Grad.Data[1] == 0 {
		t.Fatal("parameter gradient did not accumulate")
	}
}

func TestNewTapeCapAndNumNodes(t *testing.T) {
	tape := NewTapeCap(1000)
	if got := tape.NumNodes(); got != 0 {
		t.Fatalf("fresh tape NumNodes = %d", got)
	}
	x := mat.New(2, 2)
	for i := 0; i < 700; i++ {
		tape.Constant(x)
	}
	if got := tape.NumNodes(); got != 700 {
		t.Fatalf("NumNodes = %d, want 700", got)
	}
	// Node pointers must stay stable as the arena grows past its hint.
	first := tape.Constant(x)
	for i := 0; i < 5000; i++ {
		tape.Constant(x)
	}
	if first.Value != x {
		t.Fatal("node moved while the tape grew")
	}
	tape.Reset()
	if got := tape.NumNodes(); got != 0 {
		t.Fatalf("NumNodes after Reset = %d", got)
	}

	// A tape sized below one chunk grows in chunks of its own size.
	small := NewTapeCap(3)
	for i := 0; i < 10; i++ {
		small.Constant(x)
	}
	if got := small.NumNodes(); got != 10 {
		t.Fatalf("small tape NumNodes = %d, want 10", got)
	}
}

func TestGradShadowIsolatesAndFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ps := NewParamSet()
	w := ps.New("w", mat.XavierUniform(2, 2, rng))
	x := mat.RandNormal(2, 2, 0, 1, rng)

	// Reference gradient via direct accumulation.
	direct := NewTape()
	direct.Backward(direct.Sum(direct.MatMul(direct.Constant(x), direct.Use(w))))
	want := w.Grad.Clone()
	ps.ZeroGrad()

	gs := NewGradShadow(ps)
	shadowed := NewTape()
	shadowed.WithGrads(gs)
	shadowed.Backward(shadowed.Sum(shadowed.MatMul(shadowed.Constant(x), shadowed.Use(w))))
	if w.Grad.MaxAbs() != 0 {
		t.Fatal("shadowed backward leaked into Param.Grad")
	}
	if !gs.grad(w).EqualApprox(want, 0) {
		t.Fatal("shadow gradient differs from direct gradient")
	}
	gs.FoldInto(w, 0, len(w.Grad.Data))
	if !w.Grad.EqualApprox(want, 0) {
		t.Fatal("FoldInto did not fold the shadow into Param.Grad")
	}
	if gs.grad(w).MaxAbs() != 0 {
		t.Fatal("FoldInto left shadow gradients dirty")
	}

	// A param outside the mirrored set falls back to its own buffer.
	other := newParam("other", mat.New(1, 1))
	if gs.grad(other) != other.Grad {
		t.Fatal("Grad for unmirrored param should alias its own buffer")
	}
}
