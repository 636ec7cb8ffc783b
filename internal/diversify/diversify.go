// Package diversify is the classic diversified re-ranking family behind one
// interface: given a scored candidate list, re-rank it under an explicit
// relevance/diversity trade-off λ. The paper positions RAPID inside exactly
// this family (Section II); real deployments pick per-surface between a
// learned re-ranker and one of these heuristics, so every Diversifier here is
// also servable through the serving layer's Scorer seam (see Scorer in
// adapter.go) — registered, pinned, canaried and shadow-compared exactly like
// a RAPID model version.
//
// The λ convention is uniform across implementations: λ=0 degenerates to the
// initial relevance order, λ=1 ignores relevance entirely, and intermediate
// values trade list diversity (ILD@k, topic coverage) up against relevance —
// properties the package property-tests.
package diversify

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rerank"
)

// List is one scored candidate list, the diversifier-side view of a re-rank
// request: per-item relevance (initial-ranker scores), topic coverage rows
// and feature vectors. Cover and Feats may be nil or ragged — missing entries
// read as zero vectors — so hostile wire-level inputs can be driven straight
// through (the fuzz harness does).
type List struct {
	Rel   []float64
	Cover [][]float64
	Feats [][]float64
}

// size is the candidate count; Rel defines it, Cover/Feats rows beyond it are
// ignored.
func (l List) size() int { return len(l.Rel) }

// topics returns the topic dimensionality: the widest coverage row within
// the list (0 when no item carries coverage).
func (l List) topics() int {
	m := 0
	for i := 0; i < l.size() && i < len(l.Cover); i++ {
		if len(l.Cover[i]) > m {
			m = len(l.Cover[i])
		}
	}
	return m
}

// Diversifier re-ranks a scored candidate list under the trade-off λ∈[0,1]
// and returns a permutation of [0, l.Len()) in best-first order. Every
// implementation is deterministic, total on hostile input (empty lists,
// non-finite scores, ragged coverage) and degenerates to the relevance order
// at λ=0.
type Diversifier interface {
	Name() string
	Rerank(l List, lambda float64) []int
}

// New returns a fresh diversifier with its serving defaults by registry name:
// "mmr", "dpp", "bswap" or "window".
func New(name string) (Diversifier, error) {
	switch name {
	case "mmr":
		return &mmr{}, nil
	case "dpp":
		return newDPP(), nil
	case "bswap":
		return newBswap(), nil
	case "window":
		return newSlidingWindow(), nil
	}
	return nil, fmt.Errorf("diversify: unknown diversifier %q (have %v)", name, Names())
}

// Names lists the registered diversifier names, sorted.
func Names() []string { return []string{"bswap", "dpp", "mmr", "window"} }

// Known reports whether name is a registered diversifier — the manifest
// validation hook of the serving layer.
func Known(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// fromInstance projects a re-rank instance onto the diversifier-side List:
// positional relevance, coverage and feature rows. Slices are referenced, not
// copied; diversifiers never mutate them.
func fromInstance(inst *rerank.Instance) List {
	n := inst.L()
	l := List{Rel: inst.InitScores, Cover: inst.Cover}
	if len(l.Rel) > n {
		l.Rel = l.Rel[:n]
	} else if len(l.Rel) < n {
		// A malformed instance (wire-level fuzz) may carry fewer scores than
		// items; pad with zeros so the permutation still spans every item.
		padded := make([]float64, n)
		copy(padded, l.Rel)
		l.Rel = padded
	}
	if inst.ItemFeat != nil {
		l.Feats = make([][]float64, n)
		for i := 0; i < n; i++ {
			l.Feats[i] = inst.ItemFeat(inst.Items[i])
		}
	}
	return l
}

// AsReranker bridges a Diversifier into the rerank.Reranker contract at a
// fixed λ, so the experiment harness evaluates it beside RAPID and the
// baselines. The name matches the registry's version labels ("div-mmr", …).
func AsReranker(d Diversifier, lambda float64) rerank.Reranker {
	return &divReranker{d: d, lambda: lambda}
}

type divReranker struct {
	d      Diversifier
	lambda float64
}

func (r *divReranker) Name() string { return "div-" + r.d.Name() }

func (r *divReranker) Scores(inst *rerank.Instance) []float64 {
	return GreedyScores(r.d.Rerank(fromInstance(inst), r.lambda), inst.L())
}

// GreedyScores converts a selection order (indices, best first) into a score
// vector aligned with the original positions, so greedy re-rankers satisfy
// the descending-score Reranker contract.
func GreedyScores(order []int, l int) []float64 {
	scores := make([]float64, l)
	for rank, idx := range order {
		scores[idx] = float64(l - rank)
	}
	return scores
}

// NormalizeRelevance min-max scales initial scores into [0,1] so relevance
// and diversity-gain terms are comparable inside one objective. All-equal
// input maps to 0.5; non-finite entries are ignored for the range and map to
// 0 (hostile input must not poison every other item's scale).
func NormalizeRelevance(init []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range init {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	out := make([]float64, len(init))
	if !(hi-lo >= 1e-12) { // also catches the no-finite-entries case
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, s := range init {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		out[i] = (s - lo) / (hi - lo)
	}
	return out
}

// clampLambda pins the trade-off into [0,1]; NaN reads as 0 (pure relevance
// is the safe serving default for a nonsense manifest value).
func clampLambda(lambda float64) float64 {
	if !(lambda > 0) {
		return 0
	}
	if lambda > 1 {
		return 1
	}
	return lambda
}

// sanitizedRel is the per-implementation relevance preprocessing: min-max
// normalized and clamped finite, so every greedy objective below works on a
// [0,1] scale regardless of what the wire delivered.
func sanitizedRel(l List) []float64 {
	rel := NormalizeRelevance(l.Rel)
	for i, r := range rel {
		switch {
		case math.IsNaN(r) || r < 0:
			rel[i] = 0
		case r > 1:
			rel[i] = 1
		}
	}
	return rel
}

// sanitizedCover returns the list's coverage rows padded to rectangular m
// columns with every entry clamped into [0,1] (non-finite → 0). The copy
// keeps diversifiers from mutating caller state.
func sanitizedCover(l List, m int) [][]float64 {
	n := l.size()
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, m)
		if i < len(l.Cover) {
			for j, t := range l.Cover[i] {
				if j >= m {
					break
				}
				switch {
				case math.IsNaN(t) || t < 0:
					row[j] = 0
				case t > 1:
					row[j] = 1
				default:
					row[j] = t
				}
			}
		}
		out[i] = row
	}
	return out
}

// relevanceOrder is the λ=0 degenerate ranking: indices sorted by relevance
// descending, ties keeping the earlier index (matching
// rerank.OrderByScores' stable tie-breaking).
func relevanceOrder(rel []float64) []int {
	order := make([]int, len(rel))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rel[order[a]] > rel[order[b]]
	})
	return order
}
