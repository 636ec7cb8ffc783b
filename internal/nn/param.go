package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Param is a trainable tensor with a persistent gradient buffer. Backward
// passes accumulate into Grad; optimizers consume and reset it.
type Param struct {
	Name  string
	Value *mat.Matrix
	Grad  *mat.Matrix
}

// newParam wraps v as a named parameter with a zeroed gradient.
func newParam(name string, v *mat.Matrix) *Param {
	return &Param{Name: name, Value: v, Grad: mat.New(v.Rows, v.Cols)}
}

// zeroGrad clears the accumulated gradient.
func (p *Param) zeroGrad() { p.Grad.Zero() }

// ParamSet is a named collection of parameters. Layers register their
// parameters into a set so optimizers and serialization can address the
// whole model uniformly.
type ParamSet struct {
	byName map[string]*Param
	order  []string
}

// NewParamSet returns an empty set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// add registers p. It panics on duplicate names, which almost always
// indicates two layers sharing a prefix by mistake.
func (s *ParamSet) add(p *Param) *Param {
	if _, dup := s.byName[p.Name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", p.Name))
	}
	s.byName[p.Name] = p
	s.order = append(s.order, p.Name)
	return p
}

// New creates, registers and returns a parameter initialized to v.
func (s *ParamSet) New(name string, v *mat.Matrix) *Param {
	return s.add(newParam(name, v))
}

// get returns the parameter with the given name, or nil.
func (s *ParamSet) get(name string) *Param { return s.byName[name] }

// All returns the parameters in registration order.
func (s *ParamSet) All() []*Param {
	out := make([]*Param, len(s.order))
	for i, n := range s.order {
		out[i] = s.byName[n]
	}
	return out
}

// zeroGrad clears every parameter's gradient.
func (s *ParamSet) ZeroGrad() {
	for _, name := range s.order {
		s.byName[name].zeroGrad()
	}
}

// NumParams returns the total number of scalar parameters in the set.
func (s *ParamSet) NumParams() int {
	n := 0
	for _, name := range s.order {
		n += len(s.byName[name].Value.Data)
	}
	return n
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm, the usual stabilizer for recurrent nets. It returns the
// pre-clip norm. Iteration follows registration order, not map order:
// the norm is a float sum, and summation order must be identical from run
// to run for same-seed training to be bitwise reproducible.
func (s *ParamSet) ClipGradNorm(maxNorm float64) float64 {
	var total float64
	for _, name := range s.order {
		for _, g := range s.byName[name].Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, name := range s.order {
			s.byName[name].Grad.ScaleInPlace(scale)
		}
	}
	return norm
}
