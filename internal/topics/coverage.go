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

// Coverage computes the probabilistic coverage vector c(G) of a set of
// items, where cover[i] is the m-dimensional topic coverage τ of the i-th
// item: c_j(G) = 1 − Π_{v∈G} (1 − τ_v^j). The result has length m.
//
// Coverage is monotone and submodular in G, the properties the paper's
// greedy analysis (Theorem 5.1) relies on; both are property-tested.
func Coverage(cover [][]float64, m int) []float64 {
	c := make([]float64, m)
	remain := make([]float64, m)
	for j := range remain {
		remain[j] = 1
	}
	for _, tau := range cover {
		if len(tau) != m {
			panic(fmt.Sprintf("topics: item coverage has %d topics, want %d", len(tau), m))
		}
		for j, t := range tau {
			remain[j] *= 1 - t
		}
	}
	for j := range c {
		c[j] = 1 - remain[j]
	}
	return c
}

// CoverageTotal returns Σ_j c_j(G), the expected number of covered topics —
// the div@k quantity of Section IV-B2 for a single list.
func CoverageTotal(cover [][]float64, m int) float64 {
	var s float64
	for _, c := range Coverage(cover, m) {
		s += c
	}
	return s
}

// MarginalDiversity computes d_R(R(i)) of Eq. (5) for every item in the
// list: the per-topic difference between the coverage of the full list and
// the coverage with item i removed. The result is an L×m slice with entries
// in [0, 1].
//
// Rather than recomputing the product for every leave-one-out subset (an
// O(L²m) loop), it uses prefix/suffix products of (1−τ) per topic, which is
// O(Lm) and numerically identical. It runs on every scoring call and every
// training step, so the whole table is two allocations (see newTable): the
// suffix products are built in the result rows themselves and the prefix is
// one running row.
func MarginalDiversity(cover [][]float64, m int) [][]float64 {
	l := len(cover)
	out, prefix := newTable(l, m, m)
	if l == 0 {
		return out
	}
	// Backward: out[i][j] = Π_{v>i} (1−τ_v^j).
	for j := range out[l-1] {
		out[l-1][j] = 1
	}
	for i := l - 2; i >= 0; i-- {
		for j := range out[i] {
			out[i][j] = out[i+1][j] * (1 - cover[i+1][j])
		}
	}
	// Forward: prefix[j] = Π_{v<i} (1−τ_v^j).
	for j := range prefix {
		prefix[j] = 1
	}
	for i := 0; i < l; i++ {
		for j := range out[i] {
			// c_j(R) − c_j(R∖i) = Π_{v≠i}(1−τ) − Π_v(1−τ)
			without := prefix[j] * out[i][j]
			with := without * (1 - cover[i][j])
			out[i][j] = without - with // = τ_i^j · Π_{v≠i}(1−τ_v^j)
			prefix[j] *= 1 - cover[i][j]
		}
	}
	return out
}

// newTable returns a zeroed l×m table whose rows share one backing slice,
// plus extra zeroed floats of scratch cut from the same allocation: two
// allocations in all, however long the list.
func newTable(l, m, extra int) (rows [][]float64, scratch []float64) {
	flat := make([]float64, l*m+extra)
	rows = make([][]float64, l)
	for i := range rows {
		rows[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	return rows, flat[l*m:]
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
	g := make([]float64, ic.m)
	for j, t := range tau {
		g[j] = ic.remain[j] * t
	}
	return g
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

// Coverage returns the current coverage vector c(G).
func (ic *IncrementalCoverage) Coverage() []float64 {
	c := make([]float64, ic.m)
	for j, r := range ic.remain {
		c[j] = 1 - r
	}
	return c
}

// Clone returns an independent copy of the tracker.
func (ic *IncrementalCoverage) Clone() *IncrementalCoverage {
	return &IncrementalCoverage{m: ic.m, remain: append([]float64(nil), ic.remain...)}
}

func ones(m int) []float64 {
	o := make([]float64, m)
	for i := range o {
		o[i] = 1
	}
	return o
}
