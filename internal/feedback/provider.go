package feedback

import (
	"fmt"

	"repro/internal/bandit"
	"repro/internal/diversify"
	"repro/internal/engine"
)

// BanditProvider puts the λ bandit on the request path: it wraps the
// registry provider and serves a configured share of traffic through the
// policy's chosen diversifier arm instead of the active model version. Arm
// scorers are built once at construction, one *diversify.Scorer per arm.
//
// The bandit split hashes the user key (splitmix64) before the percent
// comparison, so it is statistically independent of the registry's canary
// split (raw key % 10000): carving out bandit traffic dilutes canary volume
// proportionally but never biases which requests the canary sees.
type BanditProvider struct {
	base    engine.Provider
	policy  *bandit.Policy
	percent float64
	scorers []engine.Scorer // one per arm, index-aligned with policy.Arms()
	labels  []string
}

// NewBanditProvider validates every arm against the diversifier registry and
// builds the wrapper. percent is the share of traffic (0–100) the bandit
// serves; 0 returns a provider that always passes through.
func NewBanditProvider(base engine.Provider, policy *bandit.Policy, percent float64) (*BanditProvider, error) {
	if percent < 0 || percent > 100 {
		return nil, fmt.Errorf("feedback: bandit percent %.2f outside [0,100]", percent)
	}
	arms := policy.Arms()
	p := &BanditProvider{
		base:    base,
		policy:  policy,
		percent: percent,
		scorers: make([]engine.Scorer, len(arms)),
		labels:  make([]string, len(arms)),
	}
	for i, a := range arms {
		ds, err := diversify.NewScorer(a.Name, a.Lambda)
		if err != nil {
			return nil, fmt.Errorf("feedback: arm %s: %w", a.Label(), err)
		}
		p.scorers[i] = ds
		p.labels[i] = a.Label()
	}
	return p, nil
}

// Active implements engine.Provider: the active model is always the base's —
// the bandit never owns /healthz or warm paths.
func (p *BanditProvider) Active() engine.Pinned { return p.base.Active() }

// Pick implements engine.Provider. A request in the bandit slice is served by
// the policy-selected arm over the active version's manifest geometry (the
// arm is weightless — it re-ranks whatever surface the active model defines);
// everything else passes through to the base provider, canary split included.
func (p *BanditProvider) Pick(user uint64) engine.Pinned {
	if p.percent > 0 && float64(bandit.Mix64(user)%10_000) < p.percent*100 {
		arm := p.policy.Select(user)
		pin := p.base.Active()
		pin.Scorer = p.scorers[arm]
		pin.Version = p.labels[arm]
		pin.Canary = false
		// Arm traffic must not land in the active version's lifecycle
		// counters (it would dilute the auto-rollback comparison) and never
		// shadow-scores: the bandit's own feedback loop is its evaluation.
		pin.Observe = nil
		pin.Shadow = nil
		return pin
	}
	return p.base.Pick(user)
}
