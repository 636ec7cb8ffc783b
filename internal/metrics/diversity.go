package metrics

import "math"

// ILDAtK is the intra-list distance of the top-k items: the mean pairwise
// Euclidean distance between their feature vectors. It is the standard
// content-based diversity measure reported alongside div@k in the
// diversified-ranking literature — higher means the head of the list spreads
// wider in feature space. Lists with fewer than two items have no pairs and
// score 0. Feature vectors of unequal length are compared over their common
// prefix (the caller is expected to pass a rectangular matrix; this just
// keeps the metric total).
func ILDAtK(feats [][]float64, k int) float64 {
	if k > len(feats) {
		k = len(feats)
	}
	if k < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sum += euclid(feats[i], feats[j])
		}
	}
	pairs := float64(k*(k-1)) / 2
	return sum / pairs
}

func euclid(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// alphaDCGAtK computes the α-DCG of a ranked list given per-item, per-topic
// relevance rel[i][t] ≥ 0. The gain of the item at rank i is
//
//	Σ_t rel[i][t] · (1−α)^{count of topic-t relevance already seen}
//
// discounted by 1/log2(i+2): repeated coverage of a topic decays
// geometrically, so a list that keeps hitting the same topic earns less than
// one that spreads across topics. α=0 degenerates to plain DCG over summed
// relevance; α→1 rewards only the first hit per topic.
func alphaDCGAtK(rel [][]float64, alpha float64, k int) float64 {
	if k > len(rel) {
		k = len(rel)
	}
	seen := make([]float64, topicCount(rel))
	var dcg float64
	for i := 0; i < k; i++ {
		dcg += alphaGain(rel[i], seen, alpha) / math.Log2(float64(i)+2)
		for t, r := range rel[i] {
			if r > 0 {
				seen[t]++
			}
		}
	}
	return dcg
}

// AlphaNDCGAtK normalizes alphaDCGAtK by the α-DCG of a greedily built ideal
// ordering of the same items. Computing the exact ideal is NP-hard (it is a
// weighted coverage problem), so — as is standard for this metric — the
// ideal is the greedy one: at each rank pick the remaining item with the
// largest marginal α-gain. Greedy is not guaranteed optimal, so the ratio is
// clamped to 1; the result is always in [0, 1].
func AlphaNDCGAtK(rel [][]float64, alpha float64, k int) float64 {
	if len(rel) == 0 || k <= 0 {
		return 0
	}
	ideal := alphaDCGAtK(greedyIdeal(rel, alpha, k), alpha, k)
	if ideal == 0 {
		return 0
	}
	v := alphaDCGAtK(rel, alpha, k) / ideal
	if v > 1 {
		v = 1
	}
	return v
}

// greedyIdeal reorders rel so that each of the first k ranks holds the
// remaining item with the largest marginal α-gain (position discounts are
// monotone, so ranking marginal gains descending is the greedy optimum).
// Ties break toward the earlier original index, which keeps the ideal
// deterministic.
func greedyIdeal(rel [][]float64, alpha float64, k int) [][]float64 {
	if k > len(rel) {
		k = len(rel)
	}
	pool := append([][]float64(nil), rel...)
	seen := make([]float64, topicCount(rel))
	out := make([][]float64, 0, len(rel))
	for len(out) < k {
		best, bestGain := 0, math.Inf(-1)
		for i, item := range pool {
			if g := alphaGain(item, seen, alpha); g > bestGain {
				best, bestGain = i, g
			}
		}
		pick := pool[best]
		pool = append(pool[:best], pool[best+1:]...)
		out = append(out, pick)
		for t, r := range pick {
			if r > 0 {
				seen[t]++
			}
		}
	}
	return append(out, pool...)
}

// alphaGain is one item's novelty-discounted gain given how often each topic
// has already been covered.
func alphaGain(item []float64, seen []float64, alpha float64) float64 {
	var g float64
	for t, r := range item {
		if t < len(seen) {
			g += r * math.Pow(1-alpha, seen[t])
		} else {
			g += r
		}
	}
	return g
}

func topicCount(rel [][]float64) int {
	m := 0
	for _, r := range rel {
		if len(r) > m {
			m = len(r)
		}
	}
	return m
}
