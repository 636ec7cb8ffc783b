package experiments

import (
	"repro/internal/rerank"
)

// exhaustiveOracle finds the expected-clicks-optimal ordering of an
// instance's top candidates by branch-and-bound over orderings — the exact
// comparator the greedy Oracle γ-approximates (Theorem 5.1's analysis).
// Complexity is factorial, so Limit caps how many of the list's items are
// permuted (the rest keep the greedy order); it exists for validation and
// tests, not for the evaluation pipeline.
type exhaustiveOracle struct {
	Env *Env
	// Limit is the number of leading items optimized exactly (≤ 8 keeps
	// the search trivial: 8! = 40320 orderings).
	Limit int
	// K is the prefix whose expected clicks are maximized (defaults to
	// Limit).
	K int
}

// Name implements rerank.Reranker.
func (o exhaustiveOracle) Name() string { return "ExhaustiveOracle" }

// Scores implements rerank.Reranker.
func (o exhaustiveOracle) Scores(inst *rerank.Instance) []float64 {
	limit := o.Limit
	if limit <= 0 || limit > inst.L() {
		limit = inst.L()
	}
	if limit > 8 {
		limit = 8
	}
	k := o.K
	if k <= 0 || k > limit {
		k = limit
	}
	// Candidate pool: the greedy oracle's top `limit` items, which always
	// contains the exact optimum's support for k = limit prefixes.
	greedy := oracle{o.Env}
	greedyOrder := rerank.OrderByScores(inst.Items, greedy.Scores(inst))
	pool := greedyOrder[:limit]

	best := make([]int, limit)
	cur := make([]int, 0, limit)
	used := make([]bool, limit)
	bestVal := -1.0
	var walk func()
	walk = func() {
		if len(cur) == limit {
			ordered := make([]int, 0, limit)
			for _, idx := range cur {
				ordered = append(ordered, pool[idx])
			}
			exp := o.Env.DCM.ExpectedClicks(inst.User, ordered)
			var val float64
			for i := 0; i < k; i++ {
				val += exp[i]
			}
			if val > bestVal {
				bestVal = val
				copy(best, cur)
			}
			return
		}
		for i := 0; i < limit; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, i)
			walk()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	walk()

	// Encode: optimized prefix first, then the remaining greedy tail.
	scores := make([]float64, inst.L())
	pos := map[int]int{}
	for i, v := range inst.Items {
		pos[v] = i
	}
	rank := 0
	for _, idx := range best {
		scores[pos[pool[idx]]] = float64(inst.L() - rank)
		rank++
	}
	for _, v := range greedyOrder[limit:] {
		scores[pos[v]] = float64(inst.L() - rank)
		rank++
	}
	return scores
}
