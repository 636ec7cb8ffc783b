package baselines

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/rerank"
)

// SRGA (Qian et al., WSDM'22) augments listwise attention with two
// structural priors of feed browsing: unidirectionality (users scan
// top-down, so attention is causal) and locality (neighboring items
// interact most). A learned gate mixes the unidirectional and the local
// attention views per position.
type SRGA struct {
	Hidden int
	Radius int // locality radius of the banded attention
	Seed   int64

	ps    *nn.ParamSet
	proj  *nn.Dense
	uni   *nn.AttentionHead
	local *nn.AttentionHead
	gate  *nn.Dense
	norm  *nn.LayerNorm
	score *nn.MLP
	built bool

	TrainCfg rerank.TrainConfig
}

// NewSRGA returns an SRGA with hidden width qh.
func NewSRGA(qh int, seed int64) *SRGA {
	return &SRGA{Hidden: qh, Radius: 2, Seed: seed, TrainCfg: rerank.DefaultTrainConfig(seed)}
}

// Name implements rerank.Reranker.
func (m *SRGA) Name() string { return "SRGA" }

func (m *SRGA) build(featDim int) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	dim := 2 * m.Hidden
	m.proj = nn.NewDense(m.ps, "srga.proj", featDim, dim, nn.Linear, rng)
	m.uni = nn.NewAttentionHead(m.ps, "srga.uni", dim, dim, rng)
	m.local = nn.NewAttentionHead(m.ps, "srga.local", dim, dim, rng)
	m.gate = nn.NewDense(m.ps, "srga.gate", dim, dim, nn.SigmoidAct, rng)
	m.norm = nn.NewLayerNorm(m.ps, "srga.ln", dim)
	m.score = nn.NewMLP(m.ps, "srga.score", []int{dim, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	m.built = true
}

// Params implements rerank.ListwiseModel.
func (m *SRGA) Params() *nn.ParamSet { return m.ps }

// Logits implements rerank.ListwiseModel.
func (m *SRGA) Logits(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
	if !m.built {
		m.build(inst.FeatureDim())
	}
	h := m.proj.Forward(t, t.Constant(inst.ListFeatures()))
	l := inst.L()
	uni := m.uni.Forward(t, h, nn.CausalMask(l))
	loc := m.local.Forward(t, h, nn.BandMask(l, m.Radius))
	g := m.gate.Forward(t, h)
	one := t.Constant(onesMat(l, g.Value.Cols))
	mixed := t.Add(t.Mul(g, uni), t.Mul(t.Sub(one, g), loc))
	out := m.norm.Forward(t, t.Add(h, mixed))
	return m.score.Forward(t, out)
}

// Fit implements rerank.Trainable.
func (m *SRGA) Fit(train []*rerank.Instance) error {
	if !m.built && len(train) > 0 {
		m.build(train[0].FeatureDim())
	}
	_, err := rerank.TrainListwise(m, train, m.TrainCfg)
	return err
}

// Scores implements rerank.Reranker.
func (m *SRGA) Scores(inst *rerank.Instance) []float64 {
	return rerank.ScoreWithSigmoid(m, inst)
}
