package baselines

import (
	"math"

	"repro/internal/diversify"
	"repro/internal/mat"
	"repro/internal/rerank"
)

// SSD is Sliding Spectrum Decomposition (Huang et al., KDD'21): items are
// embedded as vectors and selected greedily to maximize relevance times the
// volume they add to the space spanned by the recently selected items. The
// "sliding" part keeps only a window of past selections in the basis,
// matching how users perceive diversity over a scrolling feed. The volume
// gain of a candidate is the norm of its residual after Gram–Schmidt
// projection onto the windowed basis.
type SSD struct {
	// Window is the sliding-window size w.
	Window int
	// RelWeight trades off relevance against the residual volume term.
	RelWeight float64
}

// NewSSD returns an SSD re-ranker with the harness defaults.
func NewSSD() *SSD { return &SSD{Window: 5, RelWeight: 0.7} }

// Name implements rerank.Reranker.
func (m *SSD) Name() string { return "SSD" }

// Scores implements rerank.Reranker.
func (m *SSD) Scores(inst *rerank.Instance) []float64 {
	l := inst.L()
	rel := diversify.NormalizeRelevance(inst.InitScores)
	// Item vectors: topic coverage concatenated with unit-normalized
	// features, so both topical and latent similarity shrink the volume.
	vecs := make([][]float64, l)
	for i := 0; i < l; i++ {
		f := inst.ItemFeat(inst.Items[i])
		v := make([]float64, inst.M+len(f))
		copy(v, inst.Cover[i])
		copy(v[inst.M:], f)
		unit(v)
		vecs[i] = v
	}
	selected := make([]bool, l)
	var basis [][]float64 // orthonormal, windowed
	order := make([]int, 0, l)
	for len(order) < l {
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < l; i++ {
			if selected[i] {
				continue
			}
			res := residualNorm(vecs[i], basis)
			s := m.RelWeight*rel[i] + (1-m.RelWeight)*res
			if s > bestScore {
				best, bestScore = i, s
			}
		}
		selected[best] = true
		order = append(order, best)
		// Extend the basis with the residual direction of the pick.
		r := residual(vecs[best], basis)
		if n := mat.NormVec(r); n > 1e-9 {
			for j := range r {
				r[j] /= n
			}
			basis = append(basis, r)
			if len(basis) > m.Window {
				basis = basis[1:]
			}
		}
	}
	return diversify.GreedyScores(order, l)
}

// residual returns v minus its projection onto the orthonormal basis.
func residual(v []float64, basis [][]float64) []float64 {
	r := append([]float64(nil), v...)
	for _, b := range basis {
		d := mat.Dot(r, b)
		for j := range r {
			r[j] -= d * b[j]
		}
	}
	return r
}

func residualNorm(v []float64, basis [][]float64) float64 {
	return mat.NormVec(residual(v, basis))
}

func unit(v []float64) {
	n := mat.NormVec(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}
