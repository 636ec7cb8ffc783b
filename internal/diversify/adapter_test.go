package diversify_test

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/diversify"
	"repro/internal/engine"
	"repro/internal/rerank"
)

// The adapter must satisfy the serving layer's contract structurally.
var _ engine.Scorer = (*diversify.Scorer)(nil)

// TestNewScorerRegistry: every registered name builds a serving adapter with
// the registry-label naming convention; unknown names are rejected.
func TestNewScorerRegistry(t *testing.T) {
	for _, name := range diversify.Names() {
		sc, err := diversify.NewScorer(name, 0.5)
		if err != nil {
			t.Fatalf("NewScorer(%q): %v", name, err)
		}
		if sc.Name() != "div-"+name {
			t.Errorf("NewScorer(%q).Name() = %q, want %q", name, sc.Name(), "div-"+name)
		}
		if sc.DiversifierName() != name {
			t.Errorf("NewScorer(%q).DiversifierName() = %q, want %q", name, sc.DiversifierName(), name)
		}
	}
	if _, err := diversify.NewScorer("nope", 0.5); err == nil {
		t.Fatal("NewScorer accepted an unregistered diversifier name")
	}
}

// TestScorerRankScores: Score returns a rank-score vector — a permutation of
// 1..n — so the serving layer's descending-score ordering reproduces the
// diversified ranking exactly.
func TestScorerRankScores(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, name := range diversify.Names() {
		sc, err := diversify.NewScorer(name, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			inst := randomInstance(rng, 1+rng.Intn(16), 1+rng.Intn(5), 3)
			scores, err := sc.Score(context.Background(), inst)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			if len(scores) != inst.L() {
				t.Fatalf("%s trial %d: %d scores for %d items", name, trial, len(scores), inst.L())
			}
			sorted := append([]float64(nil), scores...)
			sort.Float64s(sorted)
			for i, s := range sorted {
				if s != float64(i+1) {
					t.Fatalf("%s trial %d: scores %v are not a permutation of 1..%d", name, trial, scores, inst.L())
				}
			}
		}
	}
}

// TestScorerContextCanceled: a canceled context fails fast — the engine's
// scoring workers rely on it.
func TestScorerContextCanceled(t *testing.T) {
	sc, err := diversify.NewScorer("mmr", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inst := randomInstance(rand.New(rand.NewSource(1)), 5, 3, 3)
	if _, err := sc.Score(ctx, inst); err != context.Canceled {
		t.Fatalf("Score on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestScorerHostileInstances: wire-shaped malformed instances (empty list,
// fewer scores than items, NaN scores, missing feature resolver) must score
// without error and still return a rank permutation.
func TestScorerHostileInstances(t *testing.T) {
	hostile := []*rerank.Instance{
		{M: 3},
		{Items: []int{0, 1, 2}, InitScores: []float64{1}, Cover: [][]float64{{0.2}, {0.9}, {0.4}}, M: 1},
		{Items: []int{0, 1}, InitScores: []float64{math.NaN(), math.Inf(1)}, Cover: [][]float64{{0.5, 0.1}, {0.3, 0.7}}, M: 2},
	}
	for _, name := range diversify.Names() {
		sc, err := diversify.NewScorer(name, math.NaN()) // hostile λ too
		if err != nil {
			t.Fatal(err)
		}
		for i, inst := range hostile {
			scores, err := sc.Score(context.Background(), inst)
			if err != nil {
				t.Fatalf("%s hostile %d: %v", name, i, err)
			}
			if len(scores) != len(inst.Items) {
				t.Fatalf("%s hostile %d: %d scores for %d items", name, i, len(scores), len(inst.Items))
			}
		}
	}
}
