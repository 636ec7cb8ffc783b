package engine

import (
	"context"

	"repro/internal/rerank"
)

// Scorer is the model-side contract the engine needs: score an instance
// under a context, name the model. Score must honor ctx — when the deadline
// fires or the caller cancels, it stops working and returns ctx's error
// rather than burning CPU on an abandoned request. *core.Model implements
// it; tests substitute stubs; Adapt wraps legacy context-free rerankers.
//
// Scorer implementations should be comparable (pointer receivers or small
// value types): an envelope's items share a ScoreBatch call only when their
// (scorer, version) pins are identical. A scorer whose dynamic type does not
// support == shares with nobody, so its items score one call each.
type Scorer interface {
	Score(ctx context.Context, inst *rerank.Instance) ([]float64, error)
	Name() string
}

// BatchScorer is the optional batched contract: score B instances in one
// pass, returning one score slice per instance in input order. The engine
// scores an envelope's same-pin run of more than one instance through this
// interface; scorers without it are scored per instance.
type BatchScorer interface {
	Scorer
	ScoreBatch(ctx context.Context, insts []*rerank.Instance) ([][]float64, error)
}

// Adapt wraps a legacy context-free reranker (the rerank.Reranker contract)
// as a Scorer. The adapter checks the context between instances, so batch
// scoring through it still observes cancellation at instance granularity.
func Adapt(r rerank.Reranker) Scorer { return &adapter{r: r} }

type adapter struct{ r rerank.Reranker }

func (a *adapter) Name() string { return a.r.Name() }

func (a *adapter) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.r.Scores(inst), nil
}

func (a *adapter) ScoreBatch(ctx context.Context, insts []*rerank.Instance) ([][]float64, error) {
	out := make([][]float64, len(insts))
	for i, inst := range insts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = a.r.Scores(inst)
	}
	return out, nil
}
