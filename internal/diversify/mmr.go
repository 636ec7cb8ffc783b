package diversify

import (
	"math"

	"repro/internal/topics"
)

// mmr is Carbonell & Goldstein's Maximal Marginal Relevance with the paper's
// probabilistic topic-coverage gain as the novelty term: items are selected
// greedily by (1−λ)·rel + λ·coverage-gain. It is the lifted core of the
// internal/baselines MMR/adpMMR reference implementations, which now
// delegate here (equivalence-tested item for item).
type mmr struct{}

// Name implements Diversifier.
func (*mmr) Name() string { return "mmr" }

// Rerank implements Diversifier.
func (*mmr) Rerank(l List, lambda float64) []int {
	m := l.topics()
	return MMRSelect(sanitizedRel(l), sanitizedCover(l, m), m, 1-clampLambda(lambda), nil)
}

// MMRSelect is the greedy MMR selection loop shared with the baselines
// package: at each position pick the unselected item maximizing
// θ·rel + (1−θ)·gain, where gain is the incremental coverage total — or,
// with non-nil topicWeights, the weighted per-topic gain (adpMMR's
// personalization). cover rows may be shorter than m (missing topics read
// as zero) but never longer. Ties keep the earliest index, matching the
// stable ordering contract of rerank.OrderByScores; the returned slice is a
// permutation of [0, len(rel)) even when every score is non-finite.
func MMRSelect(rel []float64, cover [][]float64, m int, theta float64, topicWeights []float64) []int {
	l := len(rel)
	ic := topics.NewIncrementalCoverage(m)
	selected := make([]bool, l)
	order := make([]int, 0, l)
	for len(order) < l {
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < l; i++ {
			if selected[i] {
				continue
			}
			var gain float64
			if topicWeights == nil {
				gain = ic.GainTotal(cover[i])
			} else {
				gain = ic.WeightedGain(topicWeights, cover[i]) * float64(m)
			}
			s := theta*rel[i] + (1-theta)*gain
			if best < 0 || s > bestScore {
				best, bestScore = i, s
			}
		}
		selected[best] = true
		ic.Add(cover[best])
		order = append(order, best)
	}
	return order
}
