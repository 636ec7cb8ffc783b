package experiments

import "repro/internal/dataset"

// RunExtended evaluates the extra baselines that the paper cites but does
// not table — currently the pointer-network Seq2Slate — against Init, PRM
// and RAPID on the Taobao-like λ=0.9 environment. It exists so the extra
// implementations have a reproducible, comparable home.
func RunExtended(opt Options) (*Table, error) {
	rd, err := cachedRankedData(dataset.TaobaoLike(opt.Seed), "DIN", opt)
	if err != nil {
		return nil, err
	}
	env := BuildEnv(rd, 0.9, opt)
	models := buildRerankers(env, opt, []string{"Init", "PRM", "Seq2Slate", "RAPID-pro"})
	tbl := &Table{
		Title:  "Extended baselines — Seq2Slate vs the paper's roster (taobao, λ=0.9)",
		Header: []string{"model", "click@5", "ndcg@5", "click@10", "div@10", "satis@10"},
	}
	for _, r := range models {
		if err := env.FitIfTrainable(r, opt); err != nil {
			return nil, err
		}
		res := env.Evaluate(r, []int{5, 10})
		tbl.addRow(r.Name(), f4(res.Mean("click@5")), f4(res.Mean("ndcg@5")),
			f4(res.Mean("click@10")), f4(res.Mean("div@10")), f4(res.Mean("satis@10")))
	}
	return tbl, nil
}
