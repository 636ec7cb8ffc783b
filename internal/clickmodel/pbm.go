package clickmodel

import (
	"math"

	"repro/internal/mat"
	"repro/internal/topics"
)

// PBM is a Position-Based Model: each position k has an examination
// probability γ(k) independent of clicks, and the user clicks an examined
// item with the same diversity-aware attraction probability as the DCM.
// It serves as an alternative click environment for robustness checks —
// the paper's conclusions should not hinge on the DCM's
// termination-after-click mechanics.
type PBM struct {
	// Lambda, Relevance, DivWeight, Cover and Topics mirror DCM.
	Lambda    float64
	Relevance func(user, item int) float64
	DivWeight func(user int) []float64
	Cover     func(item int) []float64
	Topics    int
	// Examination holds γ(k) per position; positions beyond the slice
	// reuse the last entry.
	Examination []float64
}

// gamma returns γ at 0-based position k.
func (p *PBM) gamma(k int) float64 {
	if len(p.Examination) == 0 {
		return 1
	}
	if k >= len(p.Examination) {
		return p.Examination[len(p.Examination)-1]
	}
	return p.Examination[k]
}

// attractions mirrors DCM.Attractions: position-dependent attraction with
// the incremental personalized diversity term.
func (p *PBM) attractions(user int, list []int) []float64 {
	phi := make([]float64, len(list))
	rho := p.DivWeight(user)
	ic := topics.NewIncrementalCoverage(p.Topics)
	for k, v := range list {
		tau := p.Cover(v)
		phi[k] = mat.Clamp(p.Lambda*p.Relevance(user, v)+(1-p.Lambda)*ic.WeightedGain(rho, tau), 0, 1)
		ic.Add(tau)
	}
	return phi
}

// ExpectedClicks returns γ(k)·φ(v_k) per position.
func (p *PBM) ExpectedClicks(user int, list []int) []float64 {
	phi := p.attractions(user, list)
	out := make([]float64, len(list))
	for k := range list {
		out[k] = p.gamma(k) * phi[k]
	}
	return out
}

// DefaultExamination builds the standard 1/(k+1)^η examination curve.
func DefaultExamination(k int, eta float64) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = 1 / math.Pow(float64(i+1), eta)
	}
	return out
}
