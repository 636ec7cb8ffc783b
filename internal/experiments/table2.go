package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ranker"
	"repro/internal/rerank"
)

// rankedCache memoizes (dataset, initial ranker) pairs within a process so
// that multi-table runs (table2a/b/c share everything but λ) don't retrain
// the initial ranker.
var rankedCache sync.Map // string → *RankedData

func cachedRankedData(cfg dataset.Config, rkName string, opt Options) (*RankedData, error) {
	key := fmt.Sprintf("%s|%s|%v|%d|%d", cfg.Name, rkName, opt.Scale, opt.Seed, cfg.Seed)
	if v, ok := rankedCache.Load(key); ok {
		return v.(*RankedData), nil
	}
	rd, err := BuildRankedData(cfg, NewRankerByName(rkName, opt.Seed), opt)
	if err != nil {
		return nil, err
	}
	rankedCache.Store(key, rd)
	return rd, nil
}

// NewRankerByName builds an initial ranker from its table name
// ("DIN", "SVMRank", "LambdaMART"); unknown names default to DIN.
func NewRankerByName(name string, seed int64) ranker.Ranker {
	switch name {
	case "SVMRank":
		return ranker.NewSVMRank(seed)
	case "LambdaMART":
		return ranker.NewLambdaMART()
	default:
		return ranker.NewDIN(seed)
	}
}

// publicDatasets returns the two public-dataset configs of Table II.
func publicDatasets(opt Options) []dataset.Config {
	return []dataset.Config{
		dataset.TaobaoLike(opt.Seed),
		dataset.MovieLensLike(opt.Seed),
	}
}

// utilityColumns is the Table II metric layout.
var utilityColumns = []string{"click@5", "ndcg@5", "div@5", "satis@5", "click@10", "ndcg@10", "div@10", "satis@10"}

// RunTable2 reproduces Table II for one λ: every baseline and both RAPID
// outputs on the Taobao-like and MovieLens-like datasets with the DIN
// initial ranker. It returns one table per dataset.
func RunTable2(lambda float64, opt Options) ([]*Table, error) {
	var tables []*Table
	for _, cfg := range publicDatasets(opt) {
		rd, err := cachedRankedData(cfg, "DIN", opt)
		if err != nil {
			return nil, err
		}
		env := BuildEnv(rd, lambda, opt)
		tbl, err := utilityTable(env, opt,
			fmt.Sprintf("Table II (λ=%.1f) — %s, initial ranker DIN", lambda, cfg.Name),
			utilityColumns)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

// utilityTable trains the full roster on the environment and tables the
// requested metric columns, with significance tests comparing RAPID-pro and
// RAPID-det against the strongest baseline on each column.
func utilityTable(env *Env, opt Options, title string, cols []string) (*Table, error) {
	tbl := &Table{Title: title, Header: append([]string{"model"}, cols...)}
	results, err := tbl.addEvalRows(env, opt, fullRoster, buildRerankers(env, opt, fullRoster))
	if err != nil {
		return nil, err
	}
	tbl.Significance = significance(results, cols)
	return tbl, nil
}

// addEvalRows fits each model on the environment's training requests,
// evaluates it on the test requests and adds a row, named names[i], of its
// means over the table's metric columns (every header after the first). It
// returns the evaluations in row order.
func (t *Table) addEvalRows(env *Env, opt Options, names []string, models []rerank.Reranker) ([]*EvalResult, error) {
	results := make([]*EvalResult, len(models))
	for i, m := range models {
		if err := env.FitIfTrainable(m, opt); err != nil {
			return nil, fmt.Errorf("experiments: fit %s: %w", names[i], err)
		}
		results[i] = env.Evaluate(m, []int{5, 10})
		cells := make([]Cell, len(t.Header)-1)
		for j, c := range t.Header[1:] {
			cells[j] = metric(results[i].Mean(c))
		}
		t.addRow(names[i], cells...)
	}
	return results, nil
}

// significance is the paper's "*" analysis: for each column, a paired
// t-test between each RAPID variant present and the best baseline on that
// column (Init, the initial ranker's own order, is not a baseline).
func significance(results []*EvalResult, cols []string) []Significance {
	var rapids, bases []*EvalResult
	for _, r := range results {
		if strings.HasPrefix(r.Name, "RAPID") {
			rapids = append(rapids, r)
		} else if r.Name != "Init" {
			bases = append(bases, r)
		}
	}
	var out []Significance
	for _, c := range cols {
		best := slices.MaxFunc(bases, func(a, b *EvalResult) int { return cmp.Compare(a.Mean(c), b.Mean(c)) })
		for _, r := range rapids {
			tt := metrics.PairedTTest(r.PerRequest[c], best.PerRequest[c])
			out = append(out, Significance{
				Metric: c, Model: r.Name, Baseline: best.Name,
				ModelMean: r.Mean(c), BaselineMean: best.Mean(c), P: tt.P,
				Significant: tt.P < 0.05 && r.Mean(c) > best.Mean(c),
			})
		}
	}
	return out
}
