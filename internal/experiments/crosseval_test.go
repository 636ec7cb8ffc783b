package experiments

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/diversify"
	"repro/internal/metrics"
	"repro/internal/rerank"
)

// diversifyK is the slate depth of the cross-evaluation: every metric is
// @10, the paper's deeper cutoff.
const diversifyK = 10

// DiversifySuiteLambda is the trade-off every classic diversifier runs at in
// the cross-evaluation: deep enough into the diversity regime to separate
// the heuristics, shallow enough that relevance still dominates the slate.
const DiversifySuiteLambda = 0.4

// headShareForTail marks the popularity head: items in the top 20% of the
// catalog by history-interaction count. Everything below is long tail.
const headShareForTail = 0.20

// RunDiversifyCrossEval cross-evaluates RAPID against the classic
// diversifier family (MMR, DPP, BSwap, sliding-window — ROADMAP item 3) on
// the three dataset generators. Beyond the paper's accuracy/diversity
// metrics (satis@k, ILD@k, α-NDCG@k) it reports the inventory-facing axes
// the Airbnb and reranker exemplars motivate: Gini over item exposure
// (popularity bias of the slates the system actually serves) and long-tail
// share (shelf space given to unpopular inventory).
func RunDiversifyCrossEval(opt Options) (*Table, error) {
	specs := []struct {
		cfg    dataset.Config
		lambda float64
	}{
		{dataset.TaobaoLike(opt.Seed), 0.9},
		{dataset.MovieLensLike(opt.Seed), 0.9},
		{dataset.AppStoreLike(opt.Seed), appStoreLambda},
	}
	tbl := &Table{
		Title: fmt.Sprintf("Diversifier cross-evaluation (k=%d, diversifier λ=%.1f, initial ranker DIN)",
			diversifyK, DiversifySuiteLambda),
		Header: []string{"dataset", "reranker",
			fmt.Sprintf("satis@%d", diversifyK),
			fmt.Sprintf("ild@%d", diversifyK),
			fmt.Sprintf("alpha-ndcg@%d", diversifyK),
			fmt.Sprintf("gini@%d", diversifyK),
			fmt.Sprintf("tail@%d", diversifyK)},
		Notes: []string{
			"gini: Gini coefficient over catalog-wide item exposure in served top-k slates (lower = less popularity bias)",
			fmt.Sprintf("tail: mean share of the top-k slate held by long-tail items (catalog outside the top %.0f%% by history popularity)", 100*headShareForTail),
		},
	}
	for _, spec := range specs {
		rd, err := cachedRankedData(spec.cfg, "DIN", opt)
		if err != nil {
			return nil, err
		}
		env := BuildEnv(rd, spec.lambda, opt)
		rapid := NewRAPID(env, opt, 12, nil)
		if err := env.FitIfTrainable(rapid, opt); err != nil {
			return nil, fmt.Errorf("experiments: fit %s on %s: %w", rapid.Name(), spec.cfg.Name, err)
		}
		rerankers := []rerank.Reranker{rapid}
		for _, name := range diversify.Names() {
			d, err := diversify.New(name)
			if err != nil {
				return nil, err
			}
			rerankers = append(rerankers, diversify.AsReranker(d, DiversifySuiteLambda))
		}
		isTail := tailClassifier(env.Data)
		for _, r := range rerankers {
			tbl.addRow(spec.cfg.Name, evalDiversifyRow(env, r, isTail)...)
		}
	}
	return tbl, nil
}

// evalDiversifyRow evaluates one re-ranker on the environment's test
// requests and returns its name and metric cells. Requests run serially in
// test-set order: the exposure histogram is a cross-request aggregate, and a
// deterministic accumulation order keeps the committed golden table exact.
func evalDiversifyRow(env *Env, r rerank.Reranker, isTail func(int) bool) []Cell {
	var satis, ild, andcg, tail []float64
	exposure := make([]float64, len(env.Data.Items))
	for _, inst := range env.Test {
		ranked := rerank.Apply(r, inst)
		satis = append(satis, env.DCM.Satisfaction(inst.User, ranked, diversifyK))

		k := diversifyK
		if k > len(ranked) {
			k = len(ranked)
		}
		feats := make([][]float64, k)
		rel := make([][]float64, k)
		for i, v := range ranked[:k] {
			feats[i] = env.Data.ItemFeatures(v)
			cover := env.Data.Cover(v)
			rv := env.Data.Relevance(inst.User, v)
			row := make([]float64, len(cover))
			for t, c := range cover {
				row[t] = rv * c
			}
			rel[i] = row
			exposure[v]++
		}
		ild = append(ild, metrics.ILDAtK(feats, diversifyK))
		andcg = append(andcg, metrics.AlphaNDCGAtK(rel, 0.5, diversifyK))
		tail = append(tail, metrics.LongTailShare(ranked, isTail, diversifyK))
	}
	return []Cell{{Text: r.Name()},
		metric(metrics.Mean(satis)),
		metric(metrics.Mean(ild)),
		metric(metrics.Mean(andcg)),
		metric(metrics.Gini(exposure)),
		metric(metrics.Mean(tail))}
}

// tailClassifier derives the dataset's long-tail predicate: items are ranked
// by their interaction count across all user histories (ties broken by item
// ID so the split is deterministic), and the catalog outside the top
// headShareForTail fraction is the tail.
func tailClassifier(d *dataset.Dataset) func(int) bool {
	count := make([]int, len(d.Items))
	for _, u := range d.Users {
		for _, v := range u.History {
			if v >= 0 && v < len(count) {
				count[v]++
			}
		}
	}
	order := make([]int, len(count))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if count[order[a]] != count[order[b]] {
			return count[order[a]] > count[order[b]]
		}
		return order[a] < order[b]
	})
	headN := int(headShareForTail * float64(len(order)))
	head := make(map[int]bool, headN)
	for _, v := range order[:headN] {
		head[v] = true
	}
	return func(v int) bool { return !head[v] }
}
