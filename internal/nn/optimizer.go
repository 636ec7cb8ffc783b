package nn

import (
	"math"

	"repro/internal/mat"
)

// Adam implements Kingma & Ba (2014), the optimizer the paper trains every
// model with (Section IV-C).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t    int
	step mat.AdamStep // the open step's scalars
	m    map[*Param]*mat.Matrix
	v    map[*Param]*mat.Matrix
}

// NewAdam returns Adam with the paper-standard hyper-parameters
// β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*mat.Matrix),
		v: make(map[*Param]*mat.Matrix),
	}
}

// Step applies one update from the gradients currently stored in params
// and zeroes them afterwards.
func (o *Adam) Step(params []*Param) {
	o.Begin(params)
	for _, p := range params {
		o.Update(p, 0, len(p.Value.Data))
	}
}

// Begin opens one step over params: it advances t, fixes the step's
// scalars (the bias corrections, and LR, β and ε as they stand now) and
// allocates any missing moment buffers. Update then applies
// the step, range by range; Begin followed by Update over every element is
// Step.
func (o *Adam) Begin(params []*Param) {
	o.t++
	o.step = mat.AdamStep{
		LR: o.LR, Beta1: o.Beta1, Beta2: o.Beta2, Eps: o.Eps,
		BC1: 1 - math.Pow(o.Beta1, float64(o.t)),
		BC2: 1 - math.Pow(o.Beta2, float64(o.t)),
	}
	for _, p := range params {
		if o.m[p] == nil {
			o.m[p] = mat.New(p.Value.Rows, p.Value.Cols)
		}
		if o.v[p] == nil {
			o.v[p] = mat.New(p.Value.Rows, p.Value.Cols)
		}
	}
}

// Update applies the step Begin opened to elements [lo, hi) of p and zeroes
// their gradients. Each element's arithmetic depends on that element alone
// (mat.AdamUpdate), so calls on disjoint ranges may run concurrently.
func (o *Adam) Update(p *Param, lo, hi int) {
	g := p.Grad.Data[lo:hi]
	mat.AdamUpdate(p.Value.Data[lo:hi], g, o.m[p].Data[lo:hi], o.v[p].Data[lo:hi], o.step)
	clear(g)
}
