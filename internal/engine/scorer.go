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
type Scorer interface {
	Score(ctx context.Context, inst *rerank.Instance) ([]float64, error)
	Name() string
}

// Adapt wraps a legacy context-free reranker (the rerank.Reranker contract)
// as a Scorer. The adapter checks the context before scoring, so a request
// whose caller already left costs no pass.
func Adapt(r rerank.Reranker) Scorer { return &adapter{r: r} }

type adapter struct{ r rerank.Reranker }

func (a *adapter) Name() string { return a.r.Name() }

func (a *adapter) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.r.Scores(inst), nil
}
