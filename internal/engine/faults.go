package engine

import (
	"context"

	"repro/internal/rerank"
)

// FaultHooks is the chaos-testing seam on the scoring path. Production
// engines leave Engine.Faults nil (one pointer compare per job); tests and
// rapidserve -chaos-latency install hooks to simulate the failure modes a
// live re-ranker must survive. Either hook may be nil.
//
// Before runs immediately before the model is invoked:
//
//   - latency spikes — Before sleeps past the request budget, forcing the
//     deadline-degradation path;
//   - scoring errors — Before returns a non-nil error, standing in for a
//     remote feature store or embedding service failing;
//   - model bugs — Before panics, standing in for an out-of-range index or
//     corrupted weight inside the forward pass.
//
// After runs once the model produced scores. An After that sleeps (honoring
// ctx) simulates the slow-response failure mode — the model answered but the
// reply is late, which is how an overloaded or GC-pausing replica actually
// looks from a fleet router.
//
// Both run on the scoring goroutine, inside the panic-recovery envelope and
// the request deadline. Any non-nil error (and any panic) triggers the
// degraded fallback, never a hard error.
type FaultHooks struct {
	Before func(ctx context.Context, inst *rerank.Instance) error
	After  func(ctx context.Context, inst *rerank.Instance, scores []float64) error
}
