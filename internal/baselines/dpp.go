package baselines

import (
	"math"

	"repro/internal/diversify"
	"repro/internal/mat"
	"repro/internal/rerank"
)

// DPP re-ranks with a Determinantal Point Process (Wilhelm et al., CIKM'18)
// using the fast greedy MAP inference of Chen et al. (NeurIPS'18). The
// kernel is L_ij = q_i·S_ij·q_j with quality q from the initial scores and
// similarity S from the items' topic coverage and feature vectors; greedy
// MAP maximizes log det of the selected submatrix incrementally via a
// Cholesky-style update, O(K²·L) overall.
type DPP struct {
	// QualityWeight scales how sharply quality (relevance) enters the
	// kernel: q_i = exp(QualityWeight · rel_i).
	QualityWeight float64
	// FeatureMix blends feature-cosine into the coverage-cosine similarity.
	FeatureMix float64
}

// NewDPP returns a DPP re-ranker with the harness defaults.
func NewDPP() *DPP { return &DPP{QualityWeight: 1.0, FeatureMix: 0.3} }

// Name implements rerank.Reranker.
func (m *DPP) Name() string { return "DPP" }

// Scores implements rerank.Reranker.
func (m *DPP) Scores(inst *rerank.Instance) []float64 {
	l := inst.L()
	kernel := m.kernel(inst)
	order := diversify.GreedyMAP(kernel, l)
	return diversify.GreedyScores(order, l)
}

// kernel builds the L-ensemble kernel matrix for an instance.
func (m *DPP) kernel(inst *rerank.Instance) *mat.Matrix {
	l := inst.L()
	rel := diversify.NormalizeRelevance(inst.InitScores)
	q := make([]float64, l)
	for i := range q {
		q[i] = math.Exp(m.QualityWeight * rel[i])
	}
	k := mat.New(l, l)
	for i := 0; i < l; i++ {
		fi := inst.ItemFeat(inst.Items[i])
		for j := i; j < l; j++ {
			fj := inst.ItemFeat(inst.Items[j])
			sim := (1-m.FeatureMix)*cosine(inst.Cover[i], inst.Cover[j]) + m.FeatureMix*cosine(fi, fj)
			// Clamp into [0,1] so the kernel stays PSD-friendly; add a
			// diagonal jitter for numerical stability of the greedy update.
			sim = mat.Clamp(sim, 0, 1)
			v := q[i] * sim * q[j]
			if i == j {
				v = q[i]*q[i] + 1e-6
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}

func cosine(a, b []float64) float64 {
	na, nb := mat.NormVec(a), mat.NormVec(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return mat.Dot(a, b) / (na * nb)
}
