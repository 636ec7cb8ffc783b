package diversify

import "math"

// slidingWindow is the Huawei live-recommender heuristic ("Personalized
// Re-ranking for Improving Diversity in Live Recommender Systems"): a greedy
// pass where the diversity term only looks at the last W already-placed
// items instead of the whole prefix. The insight is positional — users
// consume a feed through a viewport of a few items, so only local repetition
// hurts, and forgetting items older than the window frees late positions to
// re-use good topics instead of being forced ever further afield.
//
// Each position picks the unselected item maximizing
// (1−λ)·rel + λ·windowed coverage gain, where the gain is the topic-coverage
// increase relative to the window's items only. The window product is
// recomputed per position (O(W·m)), keeping the whole pass O(n²·m) worst
// case with a small constant — this is why it is the cheap-serving default
// among the suite (see DESIGN.md).
type slidingWindow struct {
	// W is the window size (default 5 — a feed viewport).
	W int
}

// newSlidingWindow returns the heuristic with the serving default window.
func newSlidingWindow() *slidingWindow { return &slidingWindow{W: 5} }

// Name implements Diversifier.
func (*slidingWindow) Name() string { return "window" }

// Rerank implements Diversifier.
func (s *slidingWindow) Rerank(l List, lambda float64) []int {
	n := l.size()
	lambda = clampLambda(lambda)
	rel := sanitizedRel(l)
	w := s.W
	if w <= 0 {
		w = 5
	}
	m := l.topics()
	cover := sanitizedCover(l, m)
	selected := make([]bool, n)
	order := make([]int, 0, n)
	remain := make([]float64, m)
	for len(order) < n {
		// remain_j = Π_{v ∈ last-W selected} (1 − τ_v^j): coverage survival
		// within the window. Unlike the full-prefix greedy (MMR), items that
		// scrolled out of the window stop suppressing their topics.
		for j := range remain {
			remain[j] = 1
		}
		lo := len(order) - w
		if lo < 0 {
			lo = 0
		}
		for _, v := range order[lo:] {
			for j, t := range cover[v] {
				remain[j] *= 1 - t
			}
		}
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			var gain float64
			for j, t := range cover[i] {
				gain += remain[j] * t
			}
			score := (1-lambda)*rel[i] + lambda*gain
			if best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		selected[best] = true
		order = append(order, best)
	}
	return order
}
