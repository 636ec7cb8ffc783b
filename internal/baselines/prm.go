package baselines

import (
	"math/rand"
	"strconv"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// PRM is Pei et al.'s Personalized Re-ranking Model: item features (with
// the personalized initial-ranker score) pass through transformer encoder
// blocks whose self-attention models the cross-item interactions, followed
// by a position-wise scoring layer. Learned positional embeddings are added
// to the projected inputs as in the original.
type PRM struct {
	Hidden int
	Blocks int
	Heads  int
	MaxLen int
	Seed   int64

	ps     *nn.ParamSet
	proj   *nn.Dense
	posEmb *nn.Param
	blocks []*nn.TransformerBlock
	score  *nn.MLP
	built  bool

	TrainCfg rerank.TrainConfig
}

// NewPRM returns a PRM with hidden width qh.
func NewPRM(qh int, seed int64) *PRM {
	return &PRM{Hidden: qh, Blocks: 2, Heads: 2, MaxLen: 64, Seed: seed, TrainCfg: rerank.DefaultTrainConfig(seed)}
}

// Name implements rerank.Reranker.
func (m *PRM) Name() string { return "PRM" }

func (m *PRM) build(featDim int) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	dim := 2 * m.Hidden
	m.proj = nn.NewDense(m.ps, "prm.proj", featDim, dim, nn.Linear, rng)
	m.posEmb = m.ps.New("prm.pos", mat.RandNormal(m.MaxLen, dim, 0, 0.02, rng))
	for b := 0; b < m.Blocks; b++ {
		m.blocks = append(m.blocks, nn.NewTransformerBlock(m.ps, "prm.block"+strconv.Itoa(b), dim, m.Heads, 2*dim, rng))
	}
	m.score = nn.NewMLP(m.ps, "prm.score", []int{dim, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	m.built = true
}

// Params implements rerank.ListwiseModel.
func (m *PRM) Params() *nn.ParamSet { return m.ps }

// Logits implements rerank.ListwiseModel.
func (m *PRM) Logits(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
	if !m.built {
		m.build(inst.FeatureDim())
	}
	x := t.Constant(inst.ListFeatures())
	h := m.proj.Forward(t, x)
	l := inst.L()
	if l > m.MaxLen {
		panic("baselines: PRM list longer than MaxLen")
	}
	pos := t.SliceRows(t.Use(m.posEmb), 0, l)
	h = t.Add(h, pos)
	for _, b := range m.blocks {
		h = b.Forward(t, h, nil)
	}
	return m.score.Forward(t, h)
}

// Fit implements rerank.Trainable.
func (m *PRM) Fit(train []*rerank.Instance) error {
	if !m.built && len(train) > 0 {
		m.build(train[0].FeatureDim())
	}
	_, err := rerank.TrainListwise(m, train, m.TrainCfg)
	return err
}

// Scores implements rerank.Reranker.
func (m *PRM) Scores(inst *rerank.Instance) []float64 {
	return rerank.ScoreWithSigmoid(m, inst)
}
