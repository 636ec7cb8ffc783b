package experiments

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ranker"
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

// utilityTable trains the full roster on the environment and formats the
// requested metric columns, with significance notes comparing RAPID-pro and
// RAPID-det against the strongest baseline on each column.
func utilityTable(env *Env, opt Options, title string, cols []string) (*Table, error) {
	rankers := buildRerankers(env, opt, fullRoster)
	tbl := &Table{Title: title, Header: append([]string{"model"}, cols...)}
	results := make([]*EvalResult, 0, len(rankers))
	for _, r := range rankers {
		if err := env.FitIfTrainable(r, opt); err != nil {
			return nil, fmt.Errorf("experiments: fit %s: %w", r.Name(), err)
		}
		res := env.Evaluate(r, []int{5, 10})
		results = append(results, res)
		row := []string{res.Name}
		for _, c := range cols {
			row = append(row, f4(res.Mean(c)))
		}
		tbl.addRow(row...)
	}
	tbl.Notes = significanceNotes(results, cols)
	return tbl, nil
}

// significanceNotes emits the paper's "*" analysis: for each column, a
// paired t-test between each RAPID variant present and the best baseline
// on that column (Init, the initial ranker's own order, is not a baseline).
func significanceNotes(results []*EvalResult, cols []string) []string {
	var rapids, bases []*EvalResult
	for _, r := range results {
		if isRapid(r.Name) {
			rapids = append(rapids, r)
		} else if r.Name != "Init" {
			bases = append(bases, r)
		}
	}
	if len(bases) == 0 {
		return nil
	}
	var notes []string
	for _, c := range cols {
		best := bases[0]
		for _, b := range bases[1:] {
			if b.Mean(c) > best.Mean(c) {
				best = b
			}
		}
		for _, r := range rapids {
			tt := metrics.PairedTTest(r.PerRequest[c], best.PerRequest[c])
			mark := ""
			if tt.P < 0.05 && r.Mean(c) > best.Mean(c) {
				mark = " *significant (p<0.05)"
			}
			notes = append(notes, fmt.Sprintf("%s: %s %.4f vs best baseline %s %.4f (p=%.4f)%s",
				c, r.Name, r.Mean(c), best.Name, best.Mean(c), tt.P, mark))
		}
	}
	return notes
}

func isRapid(name string) bool {
	return len(name) >= 5 && name[:5] == "RAPID"
}
