package diversify

import (
	"math"

	"repro/internal/mat"
)

// dpp re-ranks with a determinantal point process (Wilhelm et al., CIKM'18)
// solved by Chen et al.'s fast greedy MAP inference — the lifted core of the
// internal/baselines DPP reference, which now delegates its selection loop
// here. The kernel is L_ij = q_i·S_ij·q_j with quality q_i = exp(w·rel_i)
// and similarity S blended from coverage-cosine and feature-cosine.
//
// λ steers the quality sharpness w = QualityWeight·(1−λ)/λ: λ=0.5 reproduces
// the legacy baseline kernel exactly (w = QualityWeight), λ→1 flattens
// quality into pure-similarity volume maximization, and λ=0 short-circuits
// to the relevance order (the uniform degenerate contract of this package).
type dpp struct {
	// QualityWeight scales how sharply relevance enters the kernel at the
	// λ=0.5 midpoint.
	QualityWeight float64
	// FeatureMix blends feature-cosine into the coverage-cosine similarity.
	FeatureMix float64
	// K caps how many items the DPP objective selects; the remainder is
	// appended by relevance. 0 selects through the whole list.
	K int
}

// maxQualitySharpness caps w as λ→0: exp(30)² ≈ 1e26 keeps the kernel and
// its Cholesky update finite, and the λ=0 case never reaches the kernel
// at all.
const maxQualitySharpness = 30

// newDPP returns a DPP diversifier with the baseline-matching defaults.
func newDPP() *dpp { return &dpp{QualityWeight: 1.0, FeatureMix: 0.3} }

// Name implements Diversifier.
func (*dpp) Name() string { return "dpp" }

// Rerank implements Diversifier.
func (d *dpp) Rerank(l List, lambda float64) []int {
	n := l.size()
	lambda = clampLambda(lambda)
	rel := sanitizedRel(l)
	if lambda == 0 || n == 0 {
		return relevanceOrder(rel)
	}
	w := d.QualityWeight * (1 - lambda) / lambda
	if w > maxQualitySharpness {
		w = maxQualitySharpness
	}
	m := l.topics()
	cover := sanitizedCover(l, m)
	q := make([]float64, n)
	for i := range q {
		q[i] = math.Exp(w * rel[i])
	}
	kernel := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			sim := (1-d.FeatureMix)*cosineSim(cover[i], cover[j]) + d.FeatureMix*cosineSim(l.feat(i), l.feat(j))
			// Clamp into [0,1] so the kernel stays PSD-friendly; the jittered
			// diagonal keeps the greedy Cholesky update numerically stable.
			sim = mat.Clamp(sim, 0, 1)
			v := q[i] * sim * q[j]
			if i == j {
				v = q[i]*q[i] + 1e-6
			}
			kernel.Set(i, j, v)
			kernel.Set(j, i, v)
		}
	}
	k := d.K
	if k <= 0 || k > n {
		k = n
	}
	order := GreedyMAP(kernel, k)
	return appendRemainder(order, rel, n)
}

// feat returns item i's feature vector, or nil when the list carries none.
func (l List) feat(i int) []float64 {
	if i < len(l.Feats) {
		return l.Feats[i]
	}
	return nil
}

// appendRemainder extends a partial selection to a full permutation, ranking
// the unselected tail by relevance descending (earlier index on ties).
func appendRemainder(order []int, rel []float64, n int) []int {
	if len(order) >= n {
		return order
	}
	selected := make([]bool, n)
	for _, i := range order {
		selected[i] = true
	}
	rest := make([]int, 0, n-len(order))
	for _, i := range relevanceOrder(rel) {
		if !selected[i] {
			rest = append(rest, i)
		}
	}
	return append(order, rest...)
}

// GreedyMAP returns the greedy MAP selection order over the kernel,
// selecting up to k items. It implements Chen et al.'s incremental update:
// after selecting j, every remaining candidate i updates
// e_i = (L_ji − ⟨c_j, c_i⟩)/d_j, appends e_i to its Cholesky row c_i, and
// decreases its marginal gain d_i² by e_i². Lifted verbatim from the
// baselines package (which delegates here).
func GreedyMAP(kernel *mat.Matrix, k int) []int {
	n := kernel.Rows
	if k > n {
		k = n
	}
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = kernel.At(i, i)
	}
	// Candidate i's Cholesky row gains one entry per selection, so k fit:
	// the rows are cut from one n×k slab and append never reallocates.
	slab := make([]float64, n*k)
	cvecs := make([][]float64, n)
	for i := range cvecs {
		cvecs[i] = slab[i*k : i*k : (i+1)*k]
	}
	selected := make([]bool, n)
	order := make([]int, 0, k)
	for len(order) < k {
		best, bestGain := -1, 0.0
		for i := 0; i < n; i++ {
			if !selected[i] && (best < 0 || d2[i] > bestGain) {
				best, bestGain = i, d2[i]
			}
		}
		if best < 0 || d2[best] <= 1e-12 {
			// Remaining items add no volume; fall back to index order so
			// the returned order is still a full ranking.
			for i := 0; i < n && len(order) < k; i++ {
				if !selected[i] {
					selected[i] = true
					order = append(order, i)
				}
			}
			break
		}
		j := best
		selected[j] = true
		order = append(order, j)
		dj := math.Sqrt(d2[j])
		cj := cvecs[j]
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			var dot float64
			ci := cvecs[i]
			for t := 0; t < len(cj) && t < len(ci); t++ {
				dot += cj[t] * ci[t]
			}
			e := (kernel.At(j, i) - dot) / dj
			cvecs[i] = append(cvecs[i], e)
			d2[i] -= e * e
			if d2[i] < 0 {
				d2[i] = 0
			}
		}
	}
	return order
}

// LogDet returns log det of the kernel submatrix indexed by sel, computed
// by Cholesky. It exists for tests verifying the greedy objective.
func LogDet(kernel *mat.Matrix, sel []int) float64 {
	n := len(sel)
	sub := mat.New(n, n)
	for a, i := range sel {
		for b, j := range sel {
			sub.Set(a, b, kernel.At(i, j))
		}
	}
	// In-place Cholesky.
	var logdet float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := sub.At(i, j)
			for t := 0; t < j; t++ {
				s -= sub.At(i, t) * sub.At(j, t)
			}
			if i == j {
				if s <= 0 {
					return math.Inf(-1)
				}
				sub.Set(i, i, math.Sqrt(s))
				logdet += 2 * math.Log(sub.At(i, i))
			} else {
				sub.Set(i, j, s/sub.At(j, j))
			}
		}
	}
	return logdet
}

// cosineSim is the cosine similarity with zero-vector and non-finite guards.
// Equal-length finite vectors reproduce the legacy baselines arithmetic
// bitwise (same accumulation order); ragged hostile input compares over the
// common prefix instead of panicking.
func cosineSim(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot, sa, sb float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	for _, v := range a {
		sa += v * v
	}
	for _, v := range b {
		sb += v * v
	}
	na, nb := math.Sqrt(sa), math.Sqrt(sb)
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot / (na * nb)
	if math.IsNaN(c) {
		return 0
	}
	return c
}
