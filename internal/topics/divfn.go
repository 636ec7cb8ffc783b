package topics

import (
	"fmt"
	"math"
)

// DiversityFunction generalizes the diversity machinery of Eqs. (4)–(5):
// any monotone submodular set function over topic coverage can replace the
// probabilistic coverage, as the paper notes ("the probabilistic coverage
// function can be replaced by other submodular diversity functions
// according to the objective of the recommendation scenario").
// Implementations must return, for each listed item, the per-topic marginal
// contribution f(R) − f(R∖{i}).
type DiversityFunction interface {
	Name() string
	// Marginal returns the L×m leave-one-out marginal diversity.
	Marginal(cover [][]float64, m int) [][]float64
	// Total returns Σ_j f_j(G), the scalar diversity of a set.
	Total(cover [][]float64, m int) float64
}

// probCoverage is the paper's default: c_j(G) = 1 − Π (1 − τ^j).
type probCoverage struct{}

// Name implements DiversityFunction.
func (probCoverage) Name() string { return "prob-coverage" }

// Marginal implements DiversityFunction.
func (probCoverage) Marginal(cover [][]float64, m int) [][]float64 {
	return MarginalDiversity(cover, m)
}

// Total implements DiversityFunction.
func (probCoverage) Total(cover [][]float64, m int) float64 {
	return CoverageTotal(cover, m)
}

// saturatedCoverage applies a concave saturation to the accumulated topic
// mass: f_j(G) = log(1 + β·Σ_{v∈G} τ_v^j)/log(1+β). It rewards the first
// items of a topic most and keeps rewarding (diminishingly) afterwards —
// a softer alternative to probabilistic coverage, in the family used by
// Yue & Guestrin's linear submodular bandits.
type saturatedCoverage struct {
	// Beta controls how quickly the reward saturates (default 4).
	Beta float64
}

func (s saturatedCoverage) beta() float64 {
	if s.Beta <= 0 {
		return 4
	}
	return s.Beta
}

// Name implements DiversityFunction.
func (s saturatedCoverage) Name() string { return "saturated-coverage" }

// Total implements DiversityFunction.
func (s saturatedCoverage) Total(cover [][]float64, m int) float64 {
	b := s.beta()
	var total float64
	for j := 0; j < m; j++ {
		var mass float64
		for _, tau := range cover {
			mass += tau[j]
		}
		total += math.Log1p(b*mass) / math.Log1p(b)
	}
	return total
}

// Marginal implements DiversityFunction.
func (s saturatedCoverage) Marginal(cover [][]float64, m int) [][]float64 {
	b := s.beta()
	norm := math.Log1p(b)
	out, sums := newTable(len(cover), m, m)
	for _, tau := range cover {
		for j, t := range tau {
			sums[j] += t
		}
	}
	for i, tau := range cover {
		for j, t := range tau {
			with := math.Log1p(b*sums[j]) / norm
			without := math.Log1p(b*(sums[j]-t)) / norm
			out[i][j] = with - without
		}
	}
	return out
}

// facilityLocation scores each topic by its best single item:
// f_j(G) = max_{v∈G} τ_v^j. An item's marginal contribution is how much it
// raises the per-topic maximum over the rest of the list — the classic
// facility-location submodular objective restricted to topic space.
type facilityLocation struct{}

// Name implements DiversityFunction.
func (facilityLocation) Name() string { return "facility-location" }

// Total implements DiversityFunction.
func (facilityLocation) Total(cover [][]float64, m int) float64 {
	var total float64
	for j := 0; j < m; j++ {
		var mx float64
		for _, tau := range cover {
			if tau[j] > mx {
				mx = tau[j]
			}
		}
		total += mx
	}
	return total
}

// Marginal implements DiversityFunction.
func (facilityLocation) Marginal(cover [][]float64, m int) [][]float64 {
	out, scratch := newTable(len(cover), m, 2*m)
	if len(cover) == 0 {
		return out
	}
	// Track the largest and second-largest value per topic so each
	// leave-one-out maximum is O(1): only the item holding a topic's maximum
	// raises it, by the gap to the runner-up.
	best, second := scratch[:m], scratch[m:]
	argbest := make([]int, m)
	for i, tau := range cover {
		for j, t := range tau {
			if t > best[j] {
				second[j] = best[j]
				best[j] = t
				argbest[j] = i
			} else if t > second[j] {
				second[j] = t
			}
		}
	}
	for j, i := range argbest {
		if best[j] > 0 {
			out[i][j] = best[j] - second[j]
		}
	}
	return out
}

// DiversityFunctionByName resolves the registry used by configs and the
// ablation harness.
func DiversityFunctionByName(name string) (DiversityFunction, error) {
	switch name {
	case "", "prob-coverage":
		return probCoverage{}, nil
	case "saturated-coverage":
		return saturatedCoverage{}, nil
	case "facility-location":
		return facilityLocation{}, nil
	default:
		return nil, fmt.Errorf("topics: unknown diversity function %q", name)
	}
}
