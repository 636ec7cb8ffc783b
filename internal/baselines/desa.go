package baselines

import (
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// DESA (Qin et al., CIKM'20) jointly estimates relevance and diversity with
// self-attention: one encoder attends over the item representations (the
// relevance view) and a second attends over the items' topic-coverage
// vectors (the explicit-novelty view); the two are fused per position.
// Unlike RAPID, the diversity view is identical for all users.
type DESA struct{ *rerank.Net }

// NewDESA returns a DESA with hidden width qh.
func NewDESA(qh int, seed int64) *DESA {
	return &DESA{rerank.NewNet(seed, func(ps *nn.ParamSet, inst *rerank.Instance, rng *rand.Rand) rerank.LogitsFunc {
		dim := 2 * qh
		relProj := nn.NewDense(ps, "desa.rel.proj", inst.FeatureDim(), dim, nn.Linear, rng)
		relAttn := nn.NewMultiHeadAttention(ps, "desa.rel.attn", dim, 2, rng)
		relNorm := nn.NewLayerNorm(ps, "desa.rel.ln", dim)
		divProj := nn.NewDense(ps, "desa.div.proj", 2*inst.M, qh, nn.Tanh, rng)
		divAttn := nn.NewAttentionHead(ps, "desa.div.attn", qh, qh, rng)
		score := nn.NewMLP(ps, "desa.score", []int{dim + qh, qh, 1}, nn.ReLU, nn.Linear, rng)
		return func(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
			// Relevance view.
			h := relProj.Forward(t, t.Constant(inst.ListFeatures()))
			h = relNorm.Forward(t, t.Add(h, relAttn.Forward(t, h, nil)))
			// Diversity view: coverage plus marginal diversity, attended
			// across the list — the novelty of an item relative to its peers.
			l := inst.L()
			divFeat := mat.New(l, 2*inst.M)
			md := inst.MarginalDiversity()
			for i := 0; i < l; i++ {
				row := divFeat.Row(i)
				copy(row, inst.Cover[i])
				copy(row[inst.M:], md[i])
			}
			d := divAttn.Forward(t, divProj.Forward(t, t.Constant(divFeat)), nil)
			return score.Forward(t, t.ConcatCols(h, d))
		}
	})}
}

// Name implements rerank.Reranker.
func (m *DESA) Name() string { return "DESA" }

func onesMat(r, c int) *mat.Matrix {
	o := mat.New(r, c)
	o.Fill(1)
	return o
}
