package engine

import (
	"context"

	"repro/internal/rerank"
)

// FaultInjector is the chaos-testing seam on the scoring path. Production
// engines leave it nil (a nil injector costs one pointer compare per
// request); tests install an implementation to simulate the failure modes a
// live re-ranker must survive:
//
//   - latency spikes — BeforeScore sleeps past the request budget, forcing
//     the deadline-degradation path;
//   - scoring errors — BeforeScore returns a non-nil error, standing in for
//     a remote feature store or embedding service failing;
//   - model bugs — BeforeScore panics, standing in for an out-of-range index
//     or corrupted weight inside the forward pass.
//
// BeforeScore runs on the scoring goroutine, inside the panic-recovery and
// deadline envelope, immediately before the model is invoked. Any non-nil
// error (and any panic) triggers the degraded fallback, never a hard error.
type FaultInjector interface {
	BeforeScore(ctx context.Context, inst *rerank.Instance) error
}

// afterScoreInjector is the optional post-scoring half of the chaos seam.
// AfterScore runs on the scoring goroutine after the model produced scores,
// still inside the panic-recovery envelope and the request deadline. A
// non-nil error (or a panic) replaces the job's successful outcome and
// degrades the response; an implementation that sleeps (honoring ctx)
// simulates the slow-response failure mode — the model answered but the
// reply is late, which is how an overloaded or GC-pausing replica actually
// looks from a fleet router. Injectors that only implement FaultInjector
// keep their exact previous behavior.
type afterScoreInjector interface {
	AfterScore(ctx context.Context, inst *rerank.Instance, scores []float64) error
}

// FaultFunc adapts a plain function to the FaultInjector interface.
type FaultFunc func(ctx context.Context, inst *rerank.Instance) error

// BeforeScore implements FaultInjector.
func (f FaultFunc) BeforeScore(ctx context.Context, inst *rerank.Instance) error {
	return f(ctx, inst)
}

// AfterScoreFunc is the signature of the post-scoring fault hook.
type AfterScoreFunc func(ctx context.Context, inst *rerank.Instance, scores []float64) error

// FaultHooks bundles both halves of the chaos seam; either half may be nil.
// It is the injector shape the chaos harness uses: Before for pre-score
// errors and panics, After for latency injection on the response path.
type FaultHooks struct {
	Before FaultFunc
	After  AfterScoreFunc
}

// BeforeScore implements FaultInjector; a nil Before is a no-op.
func (h FaultHooks) BeforeScore(ctx context.Context, inst *rerank.Instance) error {
	if h.Before == nil {
		return nil
	}
	return h.Before(ctx, inst)
}

// AfterScore implements afterScoreInjector; a nil After is a no-op.
func (h FaultHooks) AfterScore(ctx context.Context, inst *rerank.Instance, scores []float64) error {
	if h.After == nil {
		return nil
	}
	return h.After(ctx, inst, scores)
}
