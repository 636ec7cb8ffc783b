// Package metrics implements the evaluation measures of Section IV-B2 —
// click@k, ndcg@k, div@k, satis@k and rev@k — plus the significance test
// the paper's tables annotate (t-test, p < 0.05).
package metrics

import (
	"math"

	"repro/internal/topics"
)

// ClickAtK sums the (expected) clicks over the top-k positions — the
// paper's click@k for one request; callers average over requests.
func ClickAtK(expClicks []float64, k int) float64 {
	if k > len(expClicks) {
		k = len(expClicks)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += expClicks[i]
	}
	return s
}

// NDCGAtK computes ndcg@k with the per-position gains (clicks) of the
// re-ranked list. The ideal DCG uses the same gain multiset sorted
// descending, so the metric is 1 when all click mass is ranked first.
func NDCGAtK(gains []float64, k int) float64 {
	if len(gains) == 0 {
		return 0
	}
	dcg := dcgAtK(gains, k)
	ideal := append([]float64(nil), gains...)
	sortDesc(ideal)
	idcg := dcgAtK(ideal, k)
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

func dcgAtK(gains []float64, k int) float64 {
	if k > len(gains) {
		k = len(gains)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += gains[i] / math.Log2(float64(i)+2)
	}
	return s
}

// DivAtK is the expected number of covered topics over the top-k items:
// Σ_j c_j(S_{1:k}) with the probabilistic coverage of Eq. (4).
func DivAtK(cover [][]float64, m, k int) float64 {
	if k > len(cover) {
		k = len(cover)
	}
	return topics.CoverageTotal(cover[:k], m)
}

// RevAtK is Σ_{i≤k} b(v_i)·click_i, the revenue utility of the App Store
// evaluation.
func RevAtK(expClicks, bids []float64, k int) float64 {
	if k > len(expClicks) {
		k = len(expClicks)
	}
	var s float64
	for i := 0; i < k; i++ {
		s += bids[i] * expClicks[i]
	}
	return s
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// variance returns the unbiased sample variance of xs.
func variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

func sortDesc(xs []float64) {
	// Insertion sort keeps this allocation-free for the short lists (≤20)
	// it is used on.
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] < v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
