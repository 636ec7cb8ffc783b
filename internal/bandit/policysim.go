package bandit

import (
	"math"
	"math/rand"
)

// PolicyEnv is the synthetic reward environment for the serving-path policy
// study: a true mean reward per (segment, arm). Feedback rewards are
// Bernoulli draws from these means, so the environment is exactly the
// clicked-any reward the live ingestor feeds the policy.
type PolicyEnv struct {
	// Means[segment][arm] is the true expected reward.
	Means [][]float64
}

// DefaultPolicyEnv builds a deterministic environment where each segment
// prefers a different region of the λ grid: the true reward of arm a in
// segment s peaks at the arm whose index matches the segment's preferred
// position, with a quadratic falloff. This is the shape that makes a
// per-segment policy strictly better than any fixed λ.
func DefaultPolicyEnv(segments, arms int, seed int64) *PolicyEnv {
	rng := rand.New(rand.NewSource(seed))
	e := &PolicyEnv{Means: make([][]float64, segments)}
	for s := range e.Means {
		row := make([]float64, arms)
		peak := float64(s%arms) + 0.3*rng.Float64()
		for a := range row {
			d := (float64(a) - peak) / float64(arms)
			row[a] = 0.55 - 0.9*d*d + 0.05*rng.Float64()
			if row[a] < 0.05 {
				row[a] = 0.05
			}
		}
		e.Means[s] = row
	}
	return e
}

// bestMean is the per-segment oracle reward.
func (e *PolicyEnv) bestMean(seg int) float64 {
	best := math.Inf(-1)
	for _, m := range e.Means[seg] {
		if m > best {
			best = m
		}
	}
	return best
}

// SimulatePolicy runs the serving-path policy against the environment for n
// rounds and returns its true cumulative regret (per-segment oracle mean
// minus the pulled arm's true mean — the expected, not sampled, shortfall,
// so curves are smooth at small n). The policy sees only sampled Bernoulli
// rewards, exactly as in live serving.
func SimulatePolicy(p *Policy, e *PolicyEnv, n, every int, seed int64) RegretCurve {
	rng := rand.New(rand.NewSource(seed))
	return simulate(e, n, every, rng, func(user uint64, seg int) int {
		arm := p.Select(user)
		reward := 0.0
		if rng.Float64() < e.Means[seg][arm] {
			reward = 1
		}
		p.Update(user, arm, reward)
		return arm
	})
}

// SimulateFixedArm is the baseline: always serve one λ, never learn. Against
// a segment-heterogeneous environment its regret grows linearly — the curve
// the policy must beat.
func SimulateFixedArm(arm int, e *PolicyEnv, n, every int, seed int64) RegretCurve {
	rng := rand.New(rand.NewSource(seed))
	return simulate(e, n, every, rng, func(uint64, int) int { return arm })
}

func simulate(e *PolicyEnv, n, every int, rng *rand.Rand, pull func(user uint64, seg int) int) RegretCurve {
	segments := len(e.Means)
	var curve RegretCurve
	var cum float64
	type pt struct {
		n int
		r float64
	}
	var checkpoints []pt
	for round := 1; round <= n; round++ {
		user := rng.Uint64()
		seg := int(user % uint64(segments))
		arm := pull(user, seg)
		cum += e.bestMean(seg) - e.Means[seg][arm]
		if round%every == 0 || round == n {
			checkpoints = append(checkpoints, pt{round, cum})
		}
	}
	curve.Final = cum
	c := cum / math.Sqrt(float64(n))
	for _, p := range checkpoints {
		curve.Points = append(curve.Points, RegretPoint{
			Round:     p.n,
			CumRegret: p.r,
			SqrtRef:   c * math.Sqrt(float64(p.n)),
		})
	}
	curve.Alpha = fitExponent(curve.Points)
	return curve
}
