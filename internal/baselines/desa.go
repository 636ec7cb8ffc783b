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
type DESA struct {
	Hidden int
	Seed   int64

	ps      *nn.ParamSet
	relProj *nn.Dense
	relAttn *nn.MultiHeadAttention
	relNorm *nn.LayerNorm
	divProj *nn.Dense
	divAttn *nn.AttentionHead
	score   *nn.MLP
	built   bool

	TrainCfg rerank.TrainConfig
}

// NewDESA returns a DESA with hidden width qh.
func NewDESA(qh int, seed int64) *DESA {
	return &DESA{Hidden: qh, Seed: seed, TrainCfg: rerank.DefaultTrainConfig(seed)}
}

// Name implements rerank.Reranker.
func (m *DESA) Name() string { return "DESA" }

func (m *DESA) build(featDim, topicsN int) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	dim := 2 * m.Hidden
	m.relProj = nn.NewDense(m.ps, "desa.rel.proj", featDim, dim, nn.Linear, rng)
	m.relAttn = nn.NewMultiHeadAttention(m.ps, "desa.rel.attn", dim, 2, rng)
	m.relNorm = nn.NewLayerNorm(m.ps, "desa.rel.ln", dim)
	m.divProj = nn.NewDense(m.ps, "desa.div.proj", 2*topicsN, m.Hidden, nn.Tanh, rng)
	m.divAttn = nn.NewAttentionHead(m.ps, "desa.div.attn", m.Hidden, m.Hidden, rng)
	m.score = nn.NewMLP(m.ps, "desa.score", []int{dim + m.Hidden, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	m.built = true
}

// Params implements rerank.ListwiseModel.
func (m *DESA) Params() *nn.ParamSet { return m.ps }

// Logits implements rerank.ListwiseModel.
func (m *DESA) Logits(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
	if !m.built {
		m.build(inst.FeatureDim(), inst.M)
	}
	// Relevance view.
	h := m.relProj.Forward(t, t.Constant(inst.ListFeatures()))
	h = m.relNorm.Forward(t, t.Add(h, m.relAttn.Forward(t, h, nil)))
	// Diversity view: coverage plus marginal diversity, attended across
	// the list — the novelty of an item relative to its peers.
	l := inst.L()
	divFeat := mat.New(l, 2*inst.M)
	md := inst.MarginalDiversity()
	for i := 0; i < l; i++ {
		row := divFeat.Row(i)
		copy(row, inst.Cover[i])
		copy(row[inst.M:], md[i])
	}
	d := m.divProj.Forward(t, t.Constant(divFeat))
	d = m.divAttn.Forward(t, d, nil)
	return m.score.Forward(t, t.ConcatCols(h, d))
}

// Fit implements rerank.Trainable.
func (m *DESA) Fit(train []*rerank.Instance) error {
	if !m.built && len(train) > 0 {
		m.build(train[0].FeatureDim(), train[0].M)
	}
	_, err := rerank.TrainListwise(m, train, m.TrainCfg)
	return err
}

// Scores implements rerank.Reranker.
func (m *DESA) Scores(inst *rerank.Instance) []float64 {
	return rerank.ScoreWithSigmoid(m, inst)
}

func onesMat(r, c int) *mat.Matrix {
	o := mat.New(r, c)
	o.Fill(1)
	return o
}
