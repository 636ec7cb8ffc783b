package baselines

import (
	"math"

	"repro/internal/diversify"
	"repro/internal/mat"
	"repro/internal/rerank"
)

// MMR is Carbonell & Goldstein's Maximal Marginal Relevance, instantiated
// with the probabilistic-coverage gain as the novelty term: items are
// selected greedily by θ·rel + (1−θ)·coverage-gain. The tradeoff θ is
// global — identical for every user — which is exactly the limitation
// RAPID addresses.
type MMR struct {
	// Theta is the relevance weight θ ∈ [0,1].
	Theta float64
}

// NewMMR returns MMR with the harness default θ = 0.7.
func NewMMR() *MMR { return &MMR{Theta: 0.7} }

// Name implements rerank.Reranker.
func (m *MMR) Name() string { return "MMR" }

// Scores implements rerank.Reranker.
func (m *MMR) Scores(inst *rerank.Instance) []float64 {
	return mmrScores(inst, m.Theta, nil)
}

// mmrScores runs the greedy MMR loop. topicWeights, when non-nil, weights
// the per-topic coverage gain (adpMMR's personalization). The loop itself
// was lifted into diversify.MMRSelect so the same selection serves behind
// /v1/rerank; the equivalence tests pin this delegation against a frozen
// copy of the pre-refactor loop.
func mmrScores(inst *rerank.Instance, theta float64, topicWeights []float64) []float64 {
	rel := diversify.NormalizeRelevance(inst.InitScores)
	order := diversify.MMRSelect(rel, inst.Cover, inst.M, theta, topicWeights)
	return diversify.GreedyScores(order, inst.L())
}

// AdpMMR is the adaptive-diversity heuristic of Di Noia et al.: the user's
// propensity toward diversity — the normalized entropy of their historical
// topic distribution — sets the MMR tradeoff per user. Only the *degree* of
// diversification is personalized; the diversity term itself stays the
// global coverage gain, exactly as in the original (and as the paper
// criticizes: "rule-based and non-learnable").
type AdpMMR struct {
	// MaxDiversityWeight caps how much of the objective the diversity term
	// can claim for a maximally-entropic user.
	MaxDiversityWeight float64
}

// NewAdpMMR returns adpMMR with the harness default cap 0.5.
func NewAdpMMR() *AdpMMR { return &AdpMMR{MaxDiversityWeight: 0.5} }

// Name implements rerank.Reranker.
func (m *AdpMMR) Name() string { return "adpMMR" }

// Scores implements rerank.Reranker.
func (m *AdpMMR) Scores(inst *rerank.Instance) []float64 {
	pref := inst.HistoryPreference()
	propensity := 0.0
	if inst.M > 1 {
		propensity = mat.Entropy(pref) / math.Log(float64(inst.M))
	}
	theta := 1 - m.MaxDiversityWeight*propensity
	return mmrScores(inst, theta, nil)
}
