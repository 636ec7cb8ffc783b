// Package baselines implements the ten re-ranking baselines the paper
// compares RAPID against (Section IV-B3): the relevance-oriented neural
// models DLCM, PRM, SetRank and SRGA; the diversity-aware MMR, DPP, DESA
// and SSD; the personalized-diversity adpMMR and PD-GAN; plus a
// pointer-network Seq2Slate as an extra cited baseline. The listwise
// neural models (DLCM, PRM, SetRank, SRGA, DESA) share the BCE training loop
// in internal/rerank; each constructor sets the model's TrainCfg to
// rerank.DefaultTrainConfig of its seed.
package baselines

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/rerank"
)

// DLCM is Ai et al.'s Deep Listwise Context Model: a recurrent encoder
// (GRU, as in the original) consumes the initial list and its final state
// serves as a local context vector; each item is scored against that
// context.
type DLCM struct {
	Hidden int
	Seed   int64

	ps    *nn.ParamSet
	gru   *nn.GRU
	score *nn.MLP
	built bool

	TrainCfg rerank.TrainConfig
}

// NewDLCM returns a DLCM with hidden width qh.
func NewDLCM(qh int, seed int64) *DLCM {
	return &DLCM{Hidden: qh, Seed: seed, TrainCfg: rerank.DefaultTrainConfig(seed)}
}

// Name implements rerank.Reranker.
func (m *DLCM) Name() string { return "DLCM" }

func (m *DLCM) build(featDim int) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	m.gru = nn.NewGRU(m.ps, "dlcm.gru", featDim, m.Hidden, rng)
	// Score each item from its recurrent state and the list-level context.
	m.score = nn.NewMLP(m.ps, "dlcm.score", []int{2 * m.Hidden, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	m.built = true
}

// Params implements rerank.ListwiseModel.
func (m *DLCM) Params() *nn.ParamSet { return m.ps }

// Logits implements rerank.ListwiseModel.
func (m *DLCM) Logits(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
	if !m.built {
		m.build(inst.FeatureDim())
	}
	x := t.Constant(inst.ListFeatures())
	states := m.gru.Forward(t, x) // L×qh
	l := inst.L()
	context := t.SliceRows(states, l-1, l) // final state, 1×qh
	ctxRows := make([]*nn.Node, l)
	for i := range ctxRows {
		ctxRows[i] = context
	}
	joint := t.ConcatCols(states, t.ConcatRows(ctxRows...))
	return m.score.Forward(t, joint)
}

// Fit implements rerank.Trainable.
func (m *DLCM) Fit(train []*rerank.Instance) error {
	if !m.built && len(train) > 0 {
		m.build(train[0].FeatureDim())
	}
	_, err := rerank.TrainListwise(m, train, m.TrainCfg)
	return err
}

// Scores implements rerank.Reranker.
func (m *DLCM) Scores(inst *rerank.Instance) []float64 {
	return rerank.ScoreWithSigmoid(m, inst)
}
