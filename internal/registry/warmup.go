package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// Warm-up replays warmupRequests synthetic requests against every loaded
// version, each inside warmupBudget. The budget is deliberately looser than
// the serving budget: warm-up pays first-touch allocation costs, and its job
// is catching models that are orders of magnitude off, not enforcing the p99.
const (
	warmupRequests = 16
	warmupBudget   = 500 * time.Millisecond
)

// errWarmup marks a version that loaded but failed warm-up validation.
var errWarmup = errors.New("warm-up failed")

// newest is the label of the newest committed version under root.
func newest(root string) (string, error) {
	versions, err := Scan(root)
	if err != nil {
		return "", err
	}
	if len(versions) == 0 {
		return "", fmt.Errorf("registry: no versions in %s (publish one with rapidtrain -publish)", root)
	}
	return versions[len(versions)-1], nil
}

// loadVersion reads version label of the store at root through load and
// warm-up validates it, handing each warm-up pass's latency to observe. It is
// the one load path: Registry.Load stages what it returns, and a Multi tenant
// serves it.
func loadVersion(load func(string) (engine.Scorer, engine.Manifest, error), root, label string, observe func(time.Duration)) (*version, error) {
	if _, err := os.Stat(filepath.Join(root, label)); err != nil {
		return nil, fmt.Errorf("%w: %s not found in %s", engine.ErrUnknownVersion, label, root)
	}
	scorer, man, err := load(ModelPath(root, label))
	if err != nil {
		return nil, fmt.Errorf("registry: load %s: %w", label, err)
	}
	if err := warmup(scorer, man, observe); err != nil {
		return nil, fmt.Errorf("registry: %w for %s: %w", errWarmup, label, err)
	}
	return &version{label: label, scorer: scorer, man: man}, nil
}

// warmup replays the synthetic golden set against a freshly loaded version
// before it may serve any traffic. Two things disqualify a version: a
// non-finite or missing score (corrupt or mis-trained weights), and a scoring
// pass over warmupBudget (a model that is orders of magnitude too slow for
// the serving budget). Warm-up also doubles as cache/allocator warm-up, so
// the first live request does not pay first-touch costs.
func warmup(scorer engine.Scorer, man engine.Manifest, observe func(time.Duration)) error {
	golden := syntheticGolden(man.Config, warmupRequests, 8)
	for i := range golden {
		inst, err := engine.ToInstance(man.Config, &golden[i])
		if err != nil {
			return fmt.Errorf("golden request %d: %w", i, err)
		}
		start := time.Now()
		scores, err := scorer.Score(context.Background(), inst)
		elapsed := time.Since(start)
		observe(elapsed)
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
		if elapsed > warmupBudget {
			return fmt.Errorf("golden request %d: scoring took %v, budget %v", i, elapsed, warmupBudget)
		}
	}
	return nil
}

// syntheticGolden builds a deterministic golden request set from a model
// geometry: n requests of listLen candidates with seeded pseudo-random
// features, coverage and behavior sequences. The same geometry always yields
// the same set, so warm-up results are reproducible across restarts.
// Synthetic inputs exercise the numerics and the latency, not the data
// distribution.
func syntheticGolden(cfg core.Config, n, listLen int) []engine.Request {
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
