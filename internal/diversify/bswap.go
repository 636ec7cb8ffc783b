package diversify

import "math"

// bswap is the bounded greedy-exchange diversifier (the BSwap strategy of
// the DivSuite taxonomy): start from the K most relevant items, then
// hill-climb single swaps — evict the selected item contributing least
// pairwise distance, admit the outsider that most improves the blended set
// objective F(S) = (1−λ)·mean-relevance(S) + λ·mean-pairwise-distance(S) —
// until no swap strictly improves F. Strict improvement makes λ=0 a no-op
// (the relevance top-K is already mean-relevance optimal), so the degenerate
// contract holds by construction.
type bswap struct {
	// K is the exchange-set size — the list head being diversified (default
	// 10, the cross-evaluation cutoff). Capped at the list length.
	K int
	// MaxSweeps bounds the hill-climb (default 2·K swaps); greedy exchange
	// converges long before this on real lists, the cap is a hostile-input
	// guarantee.
	MaxSweeps int
}

// newBswap returns a BSwap diversifier with the serving defaults.
func newBswap() *bswap { return &bswap{K: 10} }

// Name implements Diversifier.
func (*bswap) Name() string { return "bswap" }

// Rerank implements Diversifier.
func (b *bswap) Rerank(l List, lambda float64) []int {
	n := l.size()
	lambda = clampLambda(lambda)
	rel := sanitizedRel(l)
	byRel := relevanceOrder(rel)
	k := b.K
	if k <= 0 {
		k = 10
	}
	if k > n {
		k = n
	}
	if n == 0 || k < 2 || lambda == 0 {
		return byRel
	}
	maxSweeps := b.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = 2 * k
	}

	dist := pairwiseDistances(l, n)
	inSet := make([]bool, n)
	set := make([]int, k)
	copy(set, byRel[:k])
	for _, i := range set {
		inSet[i] = true
	}
	// Incremental objective state: Σ rel over S and Σ pairwise distance
	// within S; each candidate swap is evaluated in O(K) from per-member
	// distance sums.
	var relSum, distSum float64
	for a := 0; a < k; a++ {
		relSum += rel[set[a]]
		for c := a + 1; c < k; c++ {
			distSum += dist[set[a]][set[c]]
		}
	}
	pairs := float64(k*(k-1)) / 2
	objective := func(rs, ds float64) float64 {
		return (1-lambda)*(rs/float64(k)) + lambda*(ds/pairs)
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Victim: the member contributing least distance to the rest of S.
		victim, victimDist := -1, math.Inf(1)
		for a, i := range set {
			var d float64
			for c, j := range set {
				if c != a {
					d += dist[i][j]
				}
			}
			if d < victimDist {
				victim, victimDist = a, d
			}
		}
		// Best replacement: the outsider maximizing the post-swap objective.
		out := set[victim]
		bestF := objective(relSum, distSum)
		bestIn, bestInDist := -1, 0.0
		for i := 0; i < n; i++ {
			if inSet[i] {
				continue
			}
			var d float64
			for a, j := range set {
				if a != victim {
					d += dist[i][j]
				}
			}
			f := objective(relSum-rel[out]+rel[i], distSum-victimDist+d)
			if f > bestF+1e-12 {
				bestF, bestIn, bestInDist = f, i, d
			}
		}
		if bestIn < 0 {
			break // local optimum: no strict improvement left
		}
		relSum += rel[bestIn] - rel[out]
		distSum += bestInDist - victimDist
		inSet[out], inSet[bestIn] = false, true
		set[victim] = bestIn
	}

	// Selected head by relevance, then the rest by relevance: within each
	// block the initial ordering semantics are preserved.
	order := make([]int, 0, n)
	for _, i := range byRel {
		if inSet[i] {
			order = append(order, i)
		}
	}
	for _, i := range byRel {
		if !inSet[i] {
			order = append(order, i)
		}
	}
	return order
}

// pairwiseDistances precomputes the item distance matrix the exchange
// objective uses: cosine distance over topic coverage blended (50/50) with
// cosine distance over features when the list carries them. Entries land in
// [0, 2] and non-finite inputs read as maximally similar (distance 0), so a
// hostile list can never fake diversity.
func pairwiseDistances(l List, n int) [][]float64 {
	m := l.topics()
	cover := sanitizedCover(l, m)
	hasFeats := len(l.Feats) > 0
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 - cosineSim(cover[i], cover[j])
			if hasFeats {
				d = 0.5*d + 0.5*(1-cosineSim(l.feat(i), l.feat(j)))
			}
			if math.IsNaN(d) || d < 0 {
				d = 0
			}
			dist[i][j], dist[j][i] = d, d
		}
	}
	return dist
}
