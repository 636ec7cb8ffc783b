package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// GradCheck verifies analytic gradients against central finite differences.
// f must rebuild the graph from scratch on every call (fresh Tape) and
// return the scalar loss as a float64; params are the tensors whose
// gradients are checked. It returns the worst relative error observed.
//
// The analytic gradient is computed once by fAndBackward, which must run
// the same computation on a Tape and call Backward, leaving gradients in
// the params.
func GradCheck(params []*Param, f func() float64, fAndBackward func(), eps float64) (maxRelErr float64, err error) {
	for _, p := range params {
		p.zeroGrad()
	}
	fAndBackward()
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = append([]float64(nil), p.Grad.Data...)
	}
	for pi, p := range params {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := f()
			p.Value.Data[i] = orig - eps
			down := f()
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			a := analytic[pi][i]
			denom := math.Max(1e-6, math.Abs(a)+math.Abs(numeric))
			rel := math.Abs(a-numeric) / denom
			if rel > maxRelErr {
				maxRelErr = rel
			}
			if rel > 0.02 && math.Abs(a-numeric) > 1e-5 {
				return maxRelErr, fmt.Errorf("nn: gradcheck failed for %s[%d]: analytic %.8f vs numeric %.8f (rel %.4f)",
					p.Name, i, a, numeric, rel)
			}
		}
	}
	return maxRelErr, nil
}

// uniformConst is a test helper exposed for packages that gradient-check
// composite models: it builds a deterministic pseudo-random matrix without
// needing an RNG, so finite differencing sees identical inputs every call.
func uniformConst(rows, cols int, seed float64) *mat.Matrix {
	m := mat.New(rows, cols)
	x := seed
	for i := range m.Data {
		// Simple multiplicative congruential stream in (0,1).
		x = math.Mod(x*997.13+0.12345, 1.0)
		m.Data[i] = x*2 - 1
	}
	return m
}
