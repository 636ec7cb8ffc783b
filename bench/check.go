package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rerank"
	"repro/internal/serve/binproto"
)

// outcome classifies one attempted operation. Anything but ok counts as
// failed: a re-rank stage that sheds, degrades or answers with a list that
// is not the request's own has not done its job, however quickly.
type outcome int

const (
	ok outcome = iota
	failedTransport
	failedRemote // non-200 or RemoteError other than a shed
	failedShed
	failedDegraded
	failedInvalid // not a permutation of the request, or scores not finite and non-increasing
)

// classify maps a transport's error to an outcome. Both frontends report a
// shed as "overloaded" or "draining" (binproto codes; the HTTP envelope uses
// the same words and status 429/503).
func classify(err error) outcome {
	var remote *binproto.RemoteError
	switch {
	case err == nil:
		return ok
	case errors.As(err, &remote):
		if remote.Code == binproto.CodeOverloaded || remote.Code == binproto.CodeDraining {
			return failedShed
		}
		return failedRemote
	default:
		return failedTransport
	}
}

// judge checks a response that arrived without error against the pool entry
// it answers.
func judge(resp *engine.Response, k int, e *entry) outcome {
	if resp.Degraded {
		return failedDegraded
	}
	if !validRanking(resp.Ranked, resp.Scores, k, len(e.req.Items)) {
		return failedInvalid
	}
	return ok
}

// validRanking reports whether ranked is a permutation of entry k's item ids
// (k·idStride … k·idStride+n−1) with finite scores in non-increasing order.
func validRanking(ranked []int, scores []float64, k, n int) bool {
	if len(ranked) != n || len(scores) != n {
		return false
	}
	var seen uint32
	for i, id := range ranked {
		pos := id - k*idStride
		if pos < 0 || pos >= n || seen&(1<<pos) != 0 {
			return false
		}
		seen |= 1 << pos
		s := scores[i]
		if math.IsNaN(s) || math.IsInf(s, 0) || (i > 0 && s > scores[i-1]) {
			return false
		}
	}
	return true
}

// direct scores a request by calling the model with no serving layer in
// between and orders it the way the engine does.
func direct(ctx context.Context, m *core.Model, req *engine.Request) ([]int, []float64, error) {
	inst, err := engine.ToInstance(m.Cfg, req)
	if err != nil {
		return nil, nil, err
	}
	out, err := m.ScoreBatch(ctx, []*rerank.Instance{inst})
	if err != nil {
		return nil, nil, err
	}
	scores := out[0]
	ranked := rerank.OrderByScores(inst.Items, scores)
	ordered := make([]float64, len(ranked))
	for i, id := range ranked {
		ordered[i] = scores[id%idStride]
	}
	return ranked, ordered, nil
}

// parity is the repository's guarantee that a transport changes nothing:
// ranking and scores that came through it must equal the direct call's bit
// for bit.
func parity(resp *engine.Response, ranked []int, scores []float64) error {
	if len(resp.Ranked) != len(ranked) || len(resp.Scores) != len(scores) {
		return fmt.Errorf("served %d ids and %d scores, direct call gives %d", len(resp.Ranked), len(resp.Scores), len(ranked))
	}
	for i := range ranked {
		if resp.Ranked[i] != ranked[i] {
			return fmt.Errorf("rank %d: served item %d, direct call gives %d", i, resp.Ranked[i], ranked[i])
		}
		if math.Float64bits(resp.Scores[i]) != math.Float64bits(scores[i]) {
			return fmt.Errorf("rank %d: served score %x, direct call gives %x", i, math.Float64bits(resp.Scores[i]), math.Float64bits(scores[i]))
		}
	}
	return nil
}
