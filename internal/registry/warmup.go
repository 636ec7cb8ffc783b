package registry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// warmup replays the golden request set against a freshly loaded version
// before it may serve any traffic. Three things disqualify a version: a
// golden request its geometry cannot accept (the version could not serve
// production traffic), a non-finite score (corrupt or mis-trained weights),
// and a scoring pass over the warm-up latency budget (a model that is
// orders of magnitude too slow for the serving budget). Warm-up also doubles
// as cache/allocator warm-up, so the first live request does not pay
// first-touch costs.
func (r *Registry) warmup(label string, scorer engine.Scorer, man engine.Manifest) error {
	golden := r.cfg.Golden
	if golden == nil {
		golden = SyntheticGolden(man.Config, r.cfg.WarmupRequests, 8)
	}
	if len(golden) == 0 {
		return fmt.Errorf("empty golden request set")
	}
	for i := range golden {
		inst, err := engine.ToInstance(man.Config, &golden[i])
		if err != nil {
			return fmt.Errorf("golden request %d does not fit %s's geometry: %w", i, label, err)
		}
		start := time.Now()
		scores, err := scorer.Score(context.Background(), inst)
		elapsed := time.Since(start)
		r.met.warmupLatency.ObserveDuration(elapsed)
		if err != nil {
			return fmt.Errorf("golden request %d: %w", i, err)
		}
		if len(scores) != len(inst.Items) {
			return fmt.Errorf("golden request %d: %d scores for %d items", i, len(scores), len(inst.Items))
		}
		for j, s := range scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("golden request %d: non-finite score %v at item %d", i, s, j)
			}
		}
		if elapsed > r.cfg.WarmupBudget {
			return fmt.Errorf("golden request %d: scoring took %v, budget %v", i, elapsed, r.cfg.WarmupBudget)
		}
	}
	return nil
}

// SyntheticGolden builds a deterministic golden request set from a model
// geometry: n requests of listLen candidates with seeded pseudo-random
// features, coverage and behavior sequences. The same geometry always yields
// the same set, so warm-up results are reproducible across restarts. Use a
// committed production sample (Config.Golden) when one exists — synthetic
// inputs exercise the numerics and the latency, not the data distribution.
func SyntheticGolden(cfg core.Config, n, listLen int) []engine.Request {
	rng := rand.New(rand.NewSource(1))
	vec := func(dim int) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	reqs := make([]engine.Request, n)
	for i := range reqs {
		req := engine.Request{UserFeatures: vec(cfg.UserDim)}
		for j := 0; j < listLen; j++ {
			cover := make([]float64, cfg.Topics)
			cover[rng.Intn(cfg.Topics)] = 1
			req.Items = append(req.Items, engine.Item{
				ID:        j + 1,
				Features:  vec(cfg.ItemDim),
				Cover:     cover,
				InitScore: rng.Float64(),
			})
		}
		req.TopicSequences = make([][]engine.SeqItem, cfg.Topics)
		for t := range req.TopicSequences {
			for s := rng.Intn(3); s > 0; s-- {
				req.TopicSequences[t] = append(req.TopicSequences[t], engine.SeqItem{Features: vec(cfg.ItemDim)})
			}
		}
		reqs[i] = req
	}
	return reqs
}
