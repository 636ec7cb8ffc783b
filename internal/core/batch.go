package core

import (
	"context"

	"repro/internal/mat"
	"repro/internal/rerank"
)

// The inference entry points. Each borrows one arena from the model's pool,
// runs the tape-free forward (forward.go) once per instance and returns
// fresh slices. A batch is a loop over its instances on the one arena: the
// GEMM kernel works a row at a time and never reused a weight across
// stacked rows, so what stacking instances used to amortise was tape
// overhead, and that is gone. Scoring each instance alone is also what
// makes single, batched and state-supplied scores bitwise equal — no
// instance's arithmetic can depend on what it was batched with.

// Score implements serve.Scorer: a context-aware single-instance scoring
// call, ScoreBatch with a batch of one.
func (m *Model) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	out, err := m.ScoreBatch(ctx, []*rerank.Instance{inst})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ScoreBatch scores B instances, which may differ in list length and
// behavior-sequence lengths. The context is checked between recurrence
// steps, so cancellation actually stops the work. The engine scores one
// instance a call; the benchmark's probes still call this directly.
func (m *Model) ScoreBatch(ctx context.Context, insts []*rerank.Instance) ([][]float64, error) {
	out, _, err := m.ScoreBatchStates(ctx, insts, nil)
	return out, err
}

// ScoreBatchStates is ScoreBatch with the user-preference prefix factored
// out: states[b], when non-nil and produced by this model, replaces instance
// b's entire preference pass (per-topic LSTMs, self-attention, preference
// MLP) — the repeat-user fast path. Instances whose state is nil (or whose
// states slice is nil/short) are encoded inline.
//
// The second return value holds the state actually used per instance —
// supplied states passed through, freshly encoded ones for the misses — so
// a serving-layer cache can install new entries from the scoring pass it
// already paid for; it is nil for a diversity-free model. Scores are bitwise
// identical with and without supplied states (see EncodeUserState).
func (m *Model) ScoreBatchStates(ctx context.Context, insts []*rerank.Instance, states []*UserState) ([][]float64, []*UserState, error) {
	if len(insts) == 0 {
		return nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	a := m.borrow()
	defer m.arenas.Put(a)
	var out [][]float64
	var used []*UserState // nil for a diversity-free model, which has no state
	if len(insts) == 1 {
		// The engine's batch of one pays one allocation for both headers.
		both := new(struct {
			out  [1][]float64
			used [1]*UserState
		})
		out = both.out[:]
		if m.Cfg.UseDiversity {
			used = both.used[:]
		}
	} else {
		out = make([][]float64, len(insts))
		if m.Cfg.UseDiversity {
			used = make([]*UserState, len(insts))
		}
	}
	for b, inst := range insts {
		var st *UserState
		if b < len(states) {
			st = states[b]
		}
		scores, st, err := m.forward(ctx, a, inst, st)
		if err != nil {
			return nil, nil, err
		}
		mat.SigmoidInto(scores, scores)
		out[b] = scores
		if used != nil {
			used[b] = st
		}
	}
	return out, used, nil
}
