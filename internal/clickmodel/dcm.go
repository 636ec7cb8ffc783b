// Package clickmodel implements the Dependent Click Model (DCM) used by the
// paper as the semi-synthetic click environment (Section IV-B1) and for the
// satis@k metric. The DCM supports multiple clicks per list: the user scans
// positions top-down, clicks position k with attraction probability φ̄(v_k),
// and after a click leaves with termination probability ε̄(k); without a
// click she always continues.
//
// Following the paper (and Hiranandani et al. / Li et al.), the attraction
// probability combines relevance and diversity:
//
//	φ̄(v_k) = λ·ᾱ(v_k) + (1−λ)·ρ̄ᵀζ(v_k)
//
// where ζ(v_k) is the incremental topic-coverage gain of v_k over the items
// placed above it and ρ̄ is a user-specific topic weight vector.
package clickmodel

import (
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/topics"
)

// DCM is a fully specified (ground truth) dependent click model over a
// universe of users and items.
type DCM struct {
	// Lambda is the relevance–diversity tradeoff λ ∈ [0,1]; λ=1 makes
	// clicks purely relevance-driven.
	Lambda float64
	// Relevance returns the item-relevance component ᾱ(u, v) ∈ [0,1].
	Relevance func(user, item int) float64
	// DivWeight returns the user's topic weight vector ρ̄(u); entries
	// should be non-negative and sum to at most 1 so that φ̄ stays in [0,1].
	DivWeight func(user int) []float64
	// Cover returns the topic coverage τ_v of an item.
	Cover func(item int) []float64
	// Termination holds ε̄(k) for positions k = 0…K−1 (non-increasing in
	// the paper's analysis). Positions past the slice reuse the last entry.
	Termination []float64
	// Topics is the number m of topics.
	Topics int
}

// epsilon returns ε̄ at 0-based position k.
func (d *DCM) epsilon(k int) float64 {
	if len(d.Termination) == 0 {
		return 0
	}
	if k >= len(d.Termination) {
		return d.Termination[len(d.Termination)-1]
	}
	return d.Termination[k]
}

// Attractions returns the position-dependent attraction probabilities
// φ̄(v_k) for every position of the list, accounting for the incremental
// diversity term. The result has length len(list) with entries in [0,1].
func (d *DCM) Attractions(user int, list []int) []float64 {
	phi := make([]float64, len(list))
	rho := d.DivWeight(user)
	ic := topics.NewIncrementalCoverage(d.Topics)
	for k, v := range list {
		tau := d.Cover(v)
		phi[k] = mat.Clamp(d.Lambda*d.Relevance(user, v)+(1-d.Lambda)*ic.WeightedGain(rho, tau), 0, 1)
		ic.Add(tau)
	}
	return phi
}

// Simulate draws one DCM click realization for the list. It returns the
// click indicators and the 0-based position after which the user left
// (len(list) if she scanned everything).
func (d *DCM) Simulate(user int, list []int, rng *rand.Rand) (clicks []bool, leftAfter int) {
	phi := d.Attractions(user, list)
	clicks = make([]bool, len(list))
	for k := range list {
		if rng.Float64() < phi[k] {
			clicks[k] = true
			if rng.Float64() < d.epsilon(k) {
				return clicks, k
			}
		}
	}
	return clicks, len(list)
}

// ExpectedClicks returns, for each position, the exact probability that the
// item is clicked: φ̄(v_k)·P(position k is examined), where examination of
// position k+1 requires not (click ∧ terminate) at every earlier position.
// Using the exact expectation instead of sampled clicks makes evaluation
// deterministic — equivalent to averaging infinitely many simulations.
func (d *DCM) ExpectedClicks(user int, list []int) []float64 {
	return d.ExpectedClicksFrom(d.Attractions(user, list))
}

// ExpectedClicksFrom is ExpectedClicks over the list's attractions, as
// Attractions returns them: a caller that also wants Satisfaction computes
// them once.
func (d *DCM) ExpectedClicksFrom(phi []float64) []float64 {
	out := make([]float64, len(phi))
	examine := 1.0
	for k := range phi {
		out[k] = examine * phi[k]
		examine *= 1 - phi[k]*d.epsilon(k)
	}
	return out
}

// Satisfaction returns the paper's satis metric for the top-k prefix:
// 1 − Π_{i≤k} (1 − ε̄(i)·φ̄(v_i)) — the probability that the user leaves
// satisfied within the first k positions.
func (d *DCM) Satisfaction(user int, list []int, k int) float64 {
	return d.SatisfactionFrom(d.Attractions(user, list), k)
}

// SatisfactionFrom is Satisfaction over the list's attractions, as
// Attractions returns them.
func (d *DCM) SatisfactionFrom(phi []float64, k int) float64 {
	if k > len(phi) {
		k = len(phi)
	}
	prod := 1.0
	for i := 0; i < k; i++ {
		prod *= 1 - d.epsilon(i)*phi[i]
	}
	return 1 - prod
}

// DefaultTermination builds the geometric-style non-increasing termination
// profile used by the experiment harness: ε̄(k) = base·decay^k clamped to
// [0.05, 0.95]. The paper only requires ε̄ non-increasing in position.
func DefaultTermination(k int, base, decay float64) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = mat.Clamp(base*math.Pow(decay, float64(i)), 0.05, 0.95)
	}
	return out
}
