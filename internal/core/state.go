package core

import (
	"context"

	"repro/internal/rerank"
)

// UserState is the encoded, immutable result of the model's user-preference
// prefix: the personalized topic-preference distribution θ̂ (Eqs. 2–3),
// produced by the per-topic behavior LSTMs, the inter-topic self-attention
// and the preference MLP. θ̂ depends only on the user's features and behavior
// sequences — not on the candidate list — so it is the request-invariant
// prefix of scoring: for a returning user whose history has not changed,
// a cached UserState replaces the entire diversity-estimator forward pass.
//
// (The listwise relevance encoder, by contrast, runs over the candidate
// list itself and is different for every request; it is re-run on both the
// cold and the warm path.)
//
// A UserState is immutable after construction and safe to share across
// goroutines, batches and caches; holders must never mutate Theta. It is
// only valid for the exact model that produced it — the serving layer keys
// cached states by model version and flushes on every lifecycle transition
// (see internal/serve and DESIGN.md).
type UserState struct {
	theta []float64 // θ̂, length Cfg.Topics; nil for a diversity-free model
}

// NewUserState wraps a θ̂ vector as a state, taking ownership of the slice.
// It exists for tests and tooling that need synthetic states; production
// states come from EncodeUserState or ScoreBatchStates, whose floats are the
// model's own — a hand-built state only "fits" a model whose Topics matches
// the slice length.
func NewUserState(theta []float64) *UserState { return &UserState{theta: theta} }

// SizeBytes is what one resident state-cache entry costs in live heap, for
// cache budget accounting: the float64 payload plus entryOverhead.
func (s *UserState) SizeBytes() int { return 8*len(s.theta) + entryOverhead }

// entryOverhead is everything an engine state-cache entry holds besides the
// θ̂ floats: this struct (24 B), the cache's entry record — two-string key,
// charge, list links (80 B) — its index slot at the map's load factor
// (≈ 25–40 B) and the allocator's rounding of θ̂ to a size class. It is
// measured, not derived: engine.TestStateCacheChargeMatchesHeap fills a cache
// and holds the charge to within 25 % of the heap growth per entry
// (174–190 B at m = 5, depending on how full the map's tables are).
const entryOverhead = 140

// validFor reports whether the state can stand in for m's preference pass.
func (s *UserState) validFor(m *Model) bool {
	return s != nil && len(s.theta) == m.Cfg.Topics
}

// EncodeUserState runs only the user-preference prefix for one instance and
// returns its immutable encoded state. For a diversity-free model (the
// RAPID-RNN ablation) the state is empty: there is no user-dependent prefix
// to cache, and ScoreBatchStates ignores the states it is given.
//
// The returned state is bitwise identical to the θ̂ an uncached
// Score/ScoreBatch call computes internally: both run encodeTheta on this
// instance alone (pinned by TestUserStateCachedScoresBitwise). Its θ̂ is a
// fresh slice, never a view of the call's arena — a cache may keep it.
func (m *Model) EncodeUserState(ctx context.Context, inst *rerank.Instance) (*UserState, error) {
	if !m.Cfg.UseDiversity {
		return &UserState{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.checkGeometry(inst)
	a := m.borrow()
	defer m.arenas.Put(a)
	a.reset(m.preferenceScratch(0))
	theta, err := m.encodeTheta(ctx, a, inst)
	if err != nil {
		return nil, err
	}
	return &UserState{theta: theta}, nil
}
