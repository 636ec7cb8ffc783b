// Package topics implements the topic machinery of the paper: the
// probabilistic coverage function c(·) of Eq. (4), the marginal diversity of
// Eq. (5), per-topic splitting of behavior histories (Section III-C), and a
// Gaussian-mixture clustering used to derive topic coverage for datasets
// whose raw category space is large (the Taobao setup clusters 9,439
// categories into 5 topics).
package topics

import (
	"fmt"
)

// CoverageTotal returns Σ_j c_j(G), the expected number of covered topics —
// the div@k quantity of Section IV-B2 for a single list. It sums Coverage's
// entries in order; for up to 16 topics it allocates nothing.
func CoverageTotal(cover [][]float64, m int) float64 {
	var buf [16]float64
	remain := buf[:min(m, len(buf))]
	if m > len(buf) {
		remain = make([]float64, m)
	}
	uncovered(remain, cover)
	var s float64
	for _, r := range remain {
		s += 1 - r
	}
	return s
}

// uncovered sets remain_j = Π_{τ∈cover} (1 − τ_j), the probability that no
// item of the set covers topic j, for j < len(remain).
func uncovered(remain []float64, cover [][]float64) {
	for j := range remain {
		remain[j] = 1
	}
	for _, tau := range cover {
		if len(tau) != len(remain) {
			panic(fmt.Sprintf("topics: item coverage has %d topics, want %d", len(tau), len(remain)))
		}
		for j, t := range tau {
			remain[j] *= 1 - t
		}
	}
}

// MarginalDiversity computes d_R(R(i)) of Eq. (5) for every item in the
// list: the per-topic difference between the coverage of the full list and
// the coverage with item i removed. The result is an L×m slice with entries
// in [0, 1], its rows cut from one backing slice. It is the allocating
// convenience over the prob-coverage DiversityFunction's Marginal, which the
// scoring and training paths call into their own scratch.
func MarginalDiversity(cover [][]float64, m int) [][]float64 {
	flat := make([]float64, len(cover)*m)
	probCoverage{}.Marginal(flat, cover, m)
	rows := make([][]float64, len(cover))
	for i := range rows {
		rows[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	return rows
}

// IncrementalCoverage tracks the coverage of a growing list so greedy
// re-rankers (MMR-family, the bandit oracle) can query the gain of adding an
// item in O(m).
type IncrementalCoverage struct {
	m      int
	remain []float64 // Π (1−τ_v^j) over added items
}

// NewIncrementalCoverage returns an empty tracker over m topics.
func NewIncrementalCoverage(m int) *IncrementalCoverage {
	return &IncrementalCoverage{m: m, remain: ones(m)}
}

// Gain returns the per-topic coverage increase Σ-free vector ζ(v) obtained
// by adding an item with coverage tau: ζ_j = remain_j · τ_j.
func (ic *IncrementalCoverage) Gain(tau []float64) []float64 {
	return ic.GainInto(make([]float64, ic.m), tau)
}

// GainInto writes Gain(tau) into dst, which has length m, and returns it.
func (ic *IncrementalCoverage) GainInto(dst, tau []float64) []float64 {
	clear(dst[len(tau):ic.m])
	for j, t := range tau {
		dst[j] = ic.remain[j] * t
	}
	return dst
}

// WeightedGain returns Σ_j w_j·ζ_j for ζ = Gain(tau), the attraction's
// personalized diversity term ρ̄ᵀζ(v), without building ζ: the sum
// mat.Dot(w, Gain(tau)) takes, term for term and in the same order, so the
// two agree bit for bit. Like Dot, it panics unless len(w) is m.
func (ic *IncrementalCoverage) WeightedGain(w, tau []float64) float64 {
	if len(w) != ic.m || len(tau) > ic.m {
		panic(fmt.Sprintf("topics: WeightedGain over %d weights and %d coverages, want %d topics", len(w), len(tau), ic.m))
	}
	var s float64
	for j, wj := range w {
		var z float64
		if j < len(tau) {
			z = ic.remain[j] * tau[j]
		}
		s += wj * z
	}
	return s
}

// GainTotal returns Σ_j Gain(tau)_j.
func (ic *IncrementalCoverage) GainTotal(tau []float64) float64 {
	var s float64
	for j, t := range tau {
		s += ic.remain[j] * t
	}
	return s
}

// Add commits an item to the covered set.
func (ic *IncrementalCoverage) Add(tau []float64) {
	for j, t := range tau {
		ic.remain[j] *= 1 - t
	}
}

func ones(m int) []float64 {
	o := make([]float64, m)
	for i := range o {
		o[i] = 1
	}
	return o
}
