package diversify

import (
	"context"
	"fmt"

	"repro/internal/rerank"
)

// Scorer adapts a Diversifier to the serving layer's context-aware Scorer
// contract (structurally — this package does not import serve), so a
// diversifier version can be loaded, warm-up validated, canaried and
// shadow-compared exactly like a RAPID model. The scores it returns are rank
// scores (n..1 over the diversified order), which the serving layer's
// descending-score ordering turns back into the diversified ranking.
type Scorer struct {
	Diversifier Diversifier
	// Lambda is the relevance/diversity trade-off this serving instance
	// runs at (manifest field "diversifier_lambda").
	Lambda float64
}

// NewScorer builds a serving adapter for a registered diversifier name.
func NewScorer(name string, lambda float64) (*Scorer, error) {
	d, err := New(name)
	if err != nil {
		return nil, err
	}
	return &Scorer{Diversifier: d, Lambda: lambda}, nil
}

// Name implements serve.Scorer; it matches the registry's version-label
// convention for weightless diversifier versions.
func (s *Scorer) Name() string { return "div-" + s.Diversifier.Name() }

// DiversifierName exposes the registry name so the serving layer can label
// the per-diversifier rapid_diversifier_* metric series.
func (s *Scorer) DiversifierName() string { return s.Diversifier.Name() }

// Score implements serve.Scorer.
func (s *Scorer) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := inst.L()
	order := s.Diversifier.Rerank(fromInstance(inst), s.Lambda)
	if err := validOrder(order, n); err != nil {
		// Defensive: the built-in diversifiers always return permutations;
		// a custom implementation that does not must degrade the request,
		// never corrupt the ranking silently.
		return nil, fmt.Errorf("diversifier %s: %w", s.Diversifier.Name(), err)
	}
	return GreedyScores(order, n), nil
}

// validOrder checks that order is a permutation of [0, n).
func validOrder(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("returned %d positions for %d items", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("order %v is not a permutation of [0,%d)", order, n)
		}
		seen[i] = true
	}
	return nil
}
