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
// Implementations must give, for each listed item, the per-topic marginal
// contribution f(R) − f(R∖{i}).
type DiversityFunction interface {
	Name() string
	// Marginal writes the L×m leave-one-out marginal diversity row-major into
	// dst: dst[i·m+j] is item i's contribution to topic j. It writes every
	// one of those L·m floats, whatever dst held, and allocates nothing: it
	// runs on every scoring call and every training step.
	Marginal(dst []float64, cover [][]float64, m int)
	// Total returns Σ_j f_j(G), the scalar diversity of a set.
	Total(cover [][]float64, m int) float64
}

// probCoverage is the paper's default: c_j(G) = 1 − Π (1 − τ^j).
type probCoverage struct{}

// Name implements DiversityFunction.
func (probCoverage) Name() string { return "prob-coverage" }

// Marginal implements DiversityFunction: Eq. (5), one topic at a time.
// Rather than recomputing the product for every leave-one-out subset (an
// O(L²m) loop), it uses prefix and suffix products of (1−τ), which is O(Lm)
// and numerically identical. The suffix products are built in dst itself and
// the prefix is a running scalar.
func (probCoverage) Marginal(dst []float64, cover [][]float64, m int) {
	l := len(cover)
	dst = dst[:l*m]
	for j := 0; j < m; j++ {
		// Backward: dst[i·m+j] = Π_{v>i} (1−τ_v^j).
		suffix := 1.0
		for i := l - 1; i >= 0; i-- {
			dst[i*m+j] = suffix
			suffix *= 1 - cover[i][j]
		}
		// Forward, with prefix = Π_{v<i} (1−τ_v^j):
		// c_j(R) − c_j(R∖i) = Π_{v≠i}(1−τ) − Π_v(1−τ) = τ_i^j · Π_{v≠i}(1−τ_v^j).
		prefix := 1.0
		for i, tau := range cover {
			without := prefix * dst[i*m+j]
			with := without * (1 - tau[j])
			dst[i*m+j] = without - with
			prefix *= 1 - tau[j]
		}
	}
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
func (s saturatedCoverage) Marginal(dst []float64, cover [][]float64, m int) {
	b := s.beta()
	norm := math.Log1p(b)
	dst = dst[:len(cover)*m]
	for j := 0; j < m; j++ {
		var sum float64
		for _, tau := range cover {
			sum += tau[j]
		}
		for i, tau := range cover {
			with := math.Log1p(b*sum) / norm
			without := math.Log1p(b*(sum-tau[j])) / norm
			dst[i*m+j] = with - without
		}
	}
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

// Marginal implements DiversityFunction. It tracks the largest and
// second-largest value per topic so each leave-one-out maximum is O(1): only
// the item holding a topic's maximum raises it, by the gap to the runner-up.
func (facilityLocation) Marginal(dst []float64, cover [][]float64, m int) {
	dst = dst[:len(cover)*m]
	for j := 0; j < m; j++ {
		var best, second float64
		argbest := 0
		for i, tau := range cover {
			if t := tau[j]; t > best {
				second, best, argbest = best, t, i
			} else if t > second {
				second = t
			}
			dst[i*m+j] = 0
		}
		if best > 0 {
			dst[argbest*m+j] = best - second
		}
	}
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
