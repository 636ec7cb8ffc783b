package baselines

import (
	"math/rand"
	"strconv"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// SetRank (Pang et al., SIGIR'20) learns a permutation-invariant ranking
// model with induced multi-head self-attention blocks (IMSAB): attention is
// routed through a small set of learned inducing points, which removes the
// positional dependence of ordinary stacked self-attention and keeps the
// cost linear in the list length.
type SetRank struct {
	Hidden  int
	Blocks  int
	Heads   int
	Induced int // number of inducing points per block
	Seed    int64

	ps    *nn.ParamSet
	proj  *nn.Dense
	imsab []*imsabBlock
	score *nn.MLP
	built bool

	TrainCfg rerank.TrainConfig
}

// imsabBlock is one induced multi-head self-attention block:
// H = MHA(I, X); Y = MHA(X, H) with learned inducing points I.
type imsabBlock struct {
	induce      *nn.Param
	toInduced   *nn.MultiHeadAttention
	fromInduced *nn.MultiHeadAttention
	norm        *nn.LayerNorm
}

// NewSetRank returns a SetRank with hidden width qh.
func NewSetRank(qh int, seed int64) *SetRank {
	return &SetRank{Hidden: qh, Blocks: 2, Heads: 2, Induced: 4, Seed: seed, TrainCfg: rerank.DefaultTrainConfig(seed)}
}

// Name implements rerank.Reranker.
func (m *SetRank) Name() string { return "SetRank" }

func (m *SetRank) build(featDim int) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	dim := 2 * m.Hidden
	m.proj = nn.NewDense(m.ps, "setrank.proj", featDim, dim, nn.Linear, rng)
	for b := 0; b < m.Blocks; b++ {
		prefix := "setrank.b" + strconv.Itoa(b)
		m.imsab = append(m.imsab, &imsabBlock{
			induce:      m.ps.New(prefix+".I", mat.RandNormal(m.Induced, dim, 0, 0.1, rng)),
			toInduced:   nn.NewMultiHeadAttention(m.ps, prefix+".to", dim, m.Heads, rng),
			fromInduced: nn.NewMultiHeadAttention(m.ps, prefix+".from", dim, m.Heads, rng),
			norm:        nn.NewLayerNorm(m.ps, prefix+".ln", dim),
		})
	}
	m.score = nn.NewMLP(m.ps, "setrank.score", []int{dim, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	m.built = true
}

func (b *imsabBlock) forward(t *nn.Tape, x *nn.Node) *nn.Node {
	// Cross-attention through the inducing points. A MultiHeadAttention's
	// heads expose CrossForward for the (queries, keys/values) split.
	ind := t.Use(b.induce)
	h := crossMHA(t, b.toInduced, ind, x)
	y := crossMHA(t, b.fromInduced, x, h)
	return b.norm.Forward(t, t.Add(x, y))
}

func crossMHA(t *nn.Tape, mha *nn.MultiHeadAttention, q, kv *nn.Node) *nn.Node {
	outs := make([]*nn.Node, len(mha.Heads))
	for i, h := range mha.Heads {
		outs[i] = h.CrossForward(t, q, kv)
	}
	return t.MatMul(t.ConcatCols(outs...), t.Use(mha.Wo))
}

// Params implements rerank.ListwiseModel.
func (m *SetRank) Params() *nn.ParamSet { return m.ps }

// Logits implements rerank.ListwiseModel.
func (m *SetRank) Logits(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
	if !m.built {
		m.build(inst.FeatureDim())
	}
	h := m.proj.Forward(t, t.Constant(inst.ListFeatures()))
	for _, b := range m.imsab {
		h = b.forward(t, h)
	}
	return m.score.Forward(t, h)
}

// Fit implements rerank.Trainable.
func (m *SetRank) Fit(train []*rerank.Instance) error {
	if !m.built && len(train) > 0 {
		m.build(train[0].FeatureDim())
	}
	_, err := rerank.TrainListwise(m, train, m.TrainCfg)
	return err
}

// Scores implements rerank.Reranker.
func (m *SetRank) Scores(inst *rerank.Instance) []float64 {
	return rerank.ScoreWithSigmoid(m, inst)
}
