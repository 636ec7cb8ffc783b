package nn

import "repro/internal/mat"

// GradShadow is a detached set of gradient buffers mirroring a ParamSet,
// one zeroed matrix per parameter. The data-parallel trainer gives every
// gradient-accumulation slot its own shadow: a worker's backward pass
// accumulates into the slot's shadow (via Tape.WithGrads) instead of the
// shared Param.Grad buffers, so concurrent backward passes never write the
// same memory. After a batch the trainer folds the shadows into the real
// gradients with FoldInto, slots in a fixed order for every element, which
// keeps float summation — and therefore same-seed training — bitwise
// reproducible regardless of how many workers ran.
type GradShadow struct {
	ps    *ParamSet
	grads map[*Param]*mat.Matrix
}

// NewGradShadow allocates a zeroed shadow for every parameter in ps.
func NewGradShadow(ps *ParamSet) *GradShadow {
	gs := &GradShadow{ps: ps, grads: make(map[*Param]*mat.Matrix, len(ps.order))}
	for _, p := range ps.All() {
		gs.grads[p] = mat.New(p.Grad.Rows, p.Grad.Cols)
	}
	return gs
}

// grad returns the shadow buffer for p, falling back to p.Grad for a
// parameter that is not part of the mirrored set.
func (gs *GradShadow) grad(p *Param) *mat.Matrix {
	if g, ok := gs.grads[p]; ok {
		return g
	}
	return p.Grad
}

// FoldInto adds elements [lo, hi) of p's shadow buffer into p.Grad and
// zeroes them. Calls on disjoint ranges touch disjoint memory, so the
// trainer folds a parameter range per worker.
func (gs *GradShadow) FoldInto(p *Param, lo, hi int) {
	g, sh := p.Grad.Data[lo:hi], gs.grads[p].Data[lo:hi]
	for i, v := range sh {
		g[i] += v
	}
	clear(sh)
}
