package experiments

import (
	"math"

	"repro/internal/rerank"
	"repro/internal/topics"
)

// oracle is the skyline re-ranker: it greedily orders the list by the true
// DCM attraction probability (relevance plus the user's personalized
// marginal-diversity gain), which no learned model can beat in expectation.
// It exists for diagnostics and integration tests — the gap between Init
// and Oracle is the headroom the re-rankers compete for.
type oracle struct {
	Env *Env
}

// Name implements rerank.Reranker.
func (o oracle) Name() string { return "Oracle" }

// Scores implements rerank.Reranker: a greedy construction by true
// attraction, encoded as descending pseudo-scores.
func (o oracle) Scores(inst *rerank.Instance) []float64 {
	d := o.Env.Data
	l := inst.L()
	rho := d.DivWeight(inst.User)
	lambda := o.Env.DCM.Lambda
	ic := topics.NewIncrementalCoverage(d.M())
	chosen := make([]bool, l)
	scores := make([]float64, l)
	for rank := 0; rank < l; rank++ {
		best, bestS := -1, math.Inf(-1)
		for i := 0; i < l; i++ {
			if chosen[i] {
				continue
			}
			s := lambda*d.Relevance(inst.User, inst.Items[i]) + (1-lambda)*ic.WeightedGain(rho, inst.Cover[i])
			if s > bestS {
				best, bestS = i, s
			}
		}
		chosen[best] = true
		ic.Add(inst.Cover[best])
		scores[best] = float64(l - rank)
	}
	return scores
}
