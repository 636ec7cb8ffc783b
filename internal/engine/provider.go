package engine

import (
	"time"

	"repro/internal/rerank"
)

// Pinned is one coherent serving assignment: the scorer, its manifest and
// its version label, captured together from a single provider snapshot. A
// request pins exactly one Pinned and uses it end to end — geometry
// validation, scoring and response labeling all read the same triple, so a
// version swap concurrent with the request can never produce a torn read
// (scores from one model attributed to another).
type Pinned struct {
	Scorer   Scorer
	Manifest Manifest
	// Version labels the model version serving this request; empty for the
	// single-model deployment shape (then it is omitted from the response).
	Version string
	// Canary marks a request routed to a candidate version under canary
	// evaluation rather than the active model.
	Canary bool
	// Observe, if non-nil, receives the request's terminal outcome for this
	// version — "ok" or a degrade reason ("deadline", "error", "panic") —
	// with the end-to-end latency. The model lifecycle layer feeds its
	// per-version metrics and canary auto-rollback decision from here.
	Observe func(outcome string, latency time.Duration)
	// Shadow, if non-nil, is invoked after each successful scoring pass with
	// the request's instance and the primary model's scores (aligned with
	// the instance's Items). Implementations must not block: shadow work is
	// scored asynchronously off the request path and shed under pressure.
	Shadow func(inst *rerank.Instance, scores []float64)
}

// Provider hands the engine a model per request. It is the seam between the
// scoring data plane and the model lifecycle control plane: a provider may
// be a fixed single model (StaticProvider) or a versioned registry that
// routes a deterministic traffic fraction to a canary candidate while
// versions hot-swap underneath (internal/registry).
//
// Both methods must be safe for concurrent use and must return a coherent
// triple assembled from one atomic snapshot of the provider's state.
type Provider interface {
	// Active returns the current active model — the one health surfaces
	// report and warm paths should assume.
	Active() Pinned
	// Pick returns the model that serves the user with the given UserKey:
	// the active model, or the canary candidate for the configured fraction
	// of users — every slate of one user on the same side.
	Pick(user uint64) Pinned
}

// StaticProvider wraps one fixed pin as a Provider — the original
// single-model deployment shape, kept as the New default so a process
// without a registry pays zero lifecycle overhead.
func StaticProvider(pin Pinned) Provider { return staticProvider{pin: pin} }

type staticProvider struct{ pin Pinned }

func (p staticProvider) Active() Pinned     { return p.pin }
func (p staticProvider) Pick(uint64) Pinned { return p.pin }
