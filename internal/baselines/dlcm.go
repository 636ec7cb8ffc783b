// Package baselines implements the ten re-ranking baselines the paper
// compares RAPID against (Section IV-B3): the relevance-oriented neural
// models DLCM, PRM, SetRank and SRGA; the diversity-aware MMR, DPP, DESA
// and SSD; the personalized-diversity adpMMR and PD-GAN; plus a
// pointer-network Seq2Slate as an extra cited baseline. The listwise
// neural models (DLCM, PRM, SetRank, SRGA, DESA) are each a rerank.Net
// with a build func: the net holds the parameters, the BCE training loop
// and rerank.DefaultTrainConfig of the model's seed.
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
type DLCM struct{ *rerank.Net }

// NewDLCM returns a DLCM with hidden width qh.
func NewDLCM(qh int, seed int64) *DLCM {
	return &DLCM{rerank.NewNet(seed, func(ps *nn.ParamSet, inst *rerank.Instance, rng *rand.Rand) rerank.LogitsFunc {
		gru := nn.NewGRU(ps, "dlcm.gru", inst.FeatureDim(), qh, rng)
		// Score each item from its recurrent state and the list-level context.
		score := nn.NewMLP(ps, "dlcm.score", []int{2 * qh, qh, 1}, nn.ReLU, nn.Linear, rng)
		return func(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
			states := gru.Forward(t, t.Constant(inst.ListFeatures())) // L×qh
			l := inst.L()
			context := t.SliceRows(states, l-1, l) // final state, 1×qh
			ctxRows := make([]*nn.Node, l)
			for i := range ctxRows {
				ctxRows[i] = context
			}
			return score.Forward(t, t.ConcatCols(states, t.ConcatRows(ctxRows...)))
		}
	})}
}

// Name implements rerank.Reranker.
func (m *DLCM) Name() string { return "DLCM" }
