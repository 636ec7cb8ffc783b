// Package rerank defines the shared abstractions of the re-ranking stage:
// the Instance type (one initial list with everything a re-ranker may look
// at), the Reranker interface implemented by RAPID and all baselines, a
// generic listwise training loop used by every neural model, and Net, the
// listwise baselines' shared build, fit and score.
package rerank

import (
	"slices"
)

// Reranker scores the items of an instance; the re-ranked list is the
// instance's items sorted by descending score. Implementations must not
// mutate the instance.
type Reranker interface {
	Name() string
	Scores(inst *Instance) []float64
}

// Trainable is implemented by re-rankers that learn from the re-ranking
// training split (instances with click labels).
type Trainable interface {
	Fit(train []*Instance) error
}

// Apply returns the instance's items reordered by r's scores, best first.
// Ties preserve the initial order, keeping results deterministic.
func Apply(r Reranker, inst *Instance) []int {
	scores := r.Scores(inst)
	return OrderByScores(inst.Items, scores)
}

// OrderByScores sorts items by descending score with stable ties.
func OrderByScores(items []int, scores []float64) []int {
	order := OrderIndex(scores[:len(items)])
	for i, p := range order {
		order[i] = items[p]
	}
	return order
}

// OrderIndex returns the positions of scores best first: descending score,
// ties in position order. It is sort.SliceStable's algorithm under the same
// "greater than" comparison, without the reflection, so every ordering —
// NaN, which compares neither way, included — is the one sort.SliceStable
// gives.
func OrderIndex(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return 0
	})
	return idx
}

// Identity is the no-op re-ranker that returns the initial scores — the
// "Init" row of every table.
type Identity struct{}

// Name implements Reranker.
func (Identity) Name() string { return "Init" }

// Scores implements Reranker.
func (Identity) Scores(inst *Instance) []float64 {
	return append([]float64(nil), inst.InitScores...)
}
