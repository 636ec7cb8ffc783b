package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rerank"
)

// RunTable5 reproduces Table V: RAPID-pro on the App-Store-like dataset
// with maximum behavior-sequence lengths D ∈ {3, 5, 10}.
func RunTable5(opt Options) (*Table, error) {
	cfg := dataset.AppStoreLike(opt.Seed)
	rd, err := cachedRankedData(cfg, "DIN", opt)
	if err != nil {
		return nil, err
	}
	env := BuildEnv(rd, appStoreLambda, opt)
	tbl := &Table{
		Title:  "Table V — RAPID with different maximum behavior-sequence lengths (App Store)",
		Header: append([]string{"model"}, table3Columns...),
	}
	var names []string
	var models []rerank.Reranker
	for _, d := range []int{3, 5, 10} {
		names = append(names, "RAPID-"+strconv.Itoa(d))
		models = append(models, NewRAPID(env, opt, 12, func(c *core.Config) { c.D = d }))
	}
	if _, err := tbl.addEvalRows(env, opt, names, models); err != nil {
		return nil, err
	}
	return tbl, nil
}
