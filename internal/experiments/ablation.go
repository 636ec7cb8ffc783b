package experiments

import (
	"fmt"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rerank"
)

// RunDivFnAblation exercises the paper's remark that the probabilistic
// coverage in Eqs. (4)–(5) can be replaced by any submodular diversity
// function: RAPID is trained with probabilistic coverage, saturated
// coverage and facility location on the Taobao-like λ=0.5 environment
// (where the diversity term matters most) and compared on utility and
// diversity.
func RunDivFnAblation(opt Options) (*Table, error) {
	rd, err := cachedRankedData(dataset.TaobaoLike(opt.Seed), "DIN", opt)
	if err != nil {
		return nil, err
	}
	env := BuildEnv(rd, 0.5, opt)
	tbl := &Table{
		Title:  "Ablation — submodular diversity functions (taobao, λ=0.5)",
		Header: []string{"diversity fn", "click@10", "ndcg@10", "div@10", "satis@10"},
	}
	for i, name := range []string{"prob-coverage", "saturated-coverage", "facility-location"} {
		m := NewRAPID(env, opt, 30+int64(i), func(c *core.Config) { c.DiversityFn = name })
		if err := env.FitIfTrainable(m, opt); err != nil {
			return nil, fmt.Errorf("experiments: fit %s: %w", name, err)
		}
		res := env.Evaluate(m, []int{10})
		tbl.addRow(name, f4(res.Mean("click@10")), f4(res.Mean("ndcg@10")),
			f4(res.Mean("div@10")), f4(res.Mean("satis@10")))
	}
	return tbl, nil
}

// RunRobustness checks that the qualitative conclusions survive a change
// of click environment: models are trained on DCM-simulated clicks (the
// paper's protocol) and evaluated under a Position-Based Model, whose
// examination mechanics differ from the DCM's termination-after-click.
func RunRobustness(opt Options) (*Table, error) {
	rd, err := cachedRankedData(dataset.TaobaoLike(opt.Seed), "DIN", opt)
	if err != nil {
		return nil, err
	}
	env := BuildEnv(rd, 0.5, opt)
	d := env.Data
	pbm := &clickmodel.PBM{
		Lambda:      env.Lambda,
		Relevance:   d.Relevance,
		DivWeight:   d.DivWeight,
		Cover:       d.Cover,
		Topics:      d.M(),
		Examination: clickmodel.DefaultExamination(d.Cfg.ListLen, 0.7),
	}
	models := buildRerankers(env, opt, []string{"Init", "PRM", "RAPID-pro"})
	tbl := &Table{
		Title:  "Robustness — trained on DCM clicks, evaluated under a PBM (taobao, λ=0.5)",
		Header: []string{"model", "pbm-click@5", "pbm-click@10", "div@10"},
		Notes:  []string{"PBM examination γ(k) = (k+1)^-0.7; same diversity-aware attraction as the DCM."},
	}
	for _, r := range models {
		if err := env.FitIfTrainable(r, opt); err != nil {
			return nil, err
		}
		var c5, c10, div []float64
		for _, inst := range env.Test {
			ranked := rerank.Apply(r, inst)
			exp := pbm.ExpectedClicks(inst.User, ranked)
			cover := make([][]float64, len(ranked))
			for i, v := range ranked {
				cover[i] = d.Cover(v)
			}
			c5 = append(c5, metrics.ClickAtK(exp, 5))
			c10 = append(c10, metrics.ClickAtK(exp, 10))
			div = append(div, metrics.DivAtK(cover, d.M(), 10))
		}
		tbl.addRow(r.Name(), f4(metrics.Mean(c5)), f4(metrics.Mean(c10)), f4(metrics.Mean(div)))
	}
	return tbl, nil
}
