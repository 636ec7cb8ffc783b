package nn

import (
	"math/rand"
	"testing"
)

// TestRandomGraphGradients property-checks the autodiff engine itself:
// random compositions of smooth tape ops over two parameters must match
// finite differences. This catches interaction bugs that per-op checks
// cannot (gradient accumulation across shared subexpressions, fan-out,
// op ordering).
func TestRandomGraphGradients(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		rows := 1 + rng.Intn(3)
		cols := 1 + rng.Intn(3)
		a := newParam("a", uniformConst(rows, cols, 0.1+0.03*float64(trial)))
		b := newParam("b", uniformConst(rows, cols, 0.9-0.02*float64(trial)))
		plan := make([]int, 4+rng.Intn(4))
		for i := range plan {
			plan[i] = rng.Intn(6)
		}
		build := func(tp *Tape) *Node {
			// Start from both params so every graph exercises fan-in.
			x := tp.Add(tp.Use(a), tp.Use(b))
			y := tp.Mul(tp.Use(a), tp.Use(b)) // shared subexpression inputs
			for _, op := range plan {
				switch op {
				case 0:
					x = tp.Tanh(x)
				case 1:
					x = tp.sigmoid(x)
				case 2:
					x = tp.Add(x, y)
				case 3:
					x = tp.Mul(x, tp.Constant(uniformConst(rows, cols, 0.5)))
				case 4:
					x = tp.Scale(x, 0.7)
				case 5:
					x = tp.Softplus(x)
				}
			}
			// Mix in a matmul with the transpose for non-elementwise flow.
			z := tp.MatMul(x, tp.Transpose(y)) // rows×rows
			return tp.Mean(z)
		}
		f := func() float64 { tp := NewTape(); return build(tp).Value.Data[0] }
		fb := func() { tp := NewTape(); tp.Backward(build(tp)) }
		if _, err := GradCheck([]*Param{a, b}, f, fb, 1e-5); err != nil {
			t.Fatalf("trial %d (plan %v): %v", trial, plan, err)
		}
	}
}
