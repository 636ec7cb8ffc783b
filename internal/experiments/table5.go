package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
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
	for _, d := range []int{3, 5, 10} {
		m := NewRAPID(env, opt, 12, func(c *core.Config) { c.D = d })
		if err := env.FitIfTrainable(m, opt); err != nil {
			return nil, fmt.Errorf("experiments: fit RAPID-%d: %w", d, err)
		}
		res := env.Evaluate(m, []int{5, 10})
		row := []string{fmt.Sprintf("RAPID-%d", d)}
		for _, c := range table3Columns {
			row = append(row, f4(res.Mean(c)))
		}
		tbl.addRow(row...)
	}
	return tbl, nil
}
