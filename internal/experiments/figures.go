package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/rerank"
)

// RunFig3 reproduces Figure 3, the ablation analysis: RAPID against
// RAPID-RNN (no personalized diversity estimator), RAPID-mean (mean
// aggregation instead of per-topic LSTMs), RAPID-det (deterministic head)
// and RAPID-trans (transformer listwise encoder), reporting click@10 and
// div@10 on both public datasets at λ = 0.9.
func RunFig3(opt Options) ([]*Table, error) {
	const lambda = 0.9
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"RAPID", nil},
		{"RAPID-RNN", func(c *core.Config) { c.UseDiversity = false }},
		{"RAPID-mean", func(c *core.Config) { c.Agg = core.MeanAgg }},
		{"RAPID-det", func(c *core.Config) { c.Output = core.Deterministic }},
		{"RAPID-trans", func(c *core.Config) { c.Encoder = core.TransformerEncoder }},
	}
	var tables []*Table
	for _, cfg := range publicDatasets(opt) {
		rd, err := cachedRankedData(cfg, "DIN", opt)
		if err != nil {
			return nil, err
		}
		env := BuildEnv(rd, lambda, opt)
		tbl := &Table{
			Title:  fmt.Sprintf("Figure 3 — ablation analysis on %s (λ=%.1f)", cfg.Name, lambda),
			Header: []string{"variant", "click@10", "div@10"},
		}
		names := make([]string, len(variants))
		models := make([]rerank.Reranker, len(variants))
		for i, v := range variants {
			names[i], models[i] = v.name, NewRAPID(env, opt, 12+int64(i), v.mutate)
		}
		if _, err := tbl.addEvalRows(env, opt, names, models); err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

// RunFig4 reproduces Figure 4, the hidden-size study: RAPID with
// q_h ∈ {8, 16, 32, 64} on the two public datasets (λ = 0.9) and App Store.
func RunFig4(opt Options) ([]*Table, error) {
	envs, err := allEnvs(opt)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, env := range envs {
		tbl := &Table{
			Title:  fmt.Sprintf("Figure 4 — hidden size study on %s", env.Data.Name),
			Header: []string{"hidden", "click@10", "div@10"},
		}
		var names []string
		var models []rerank.Reranker
		for i, h := range []int{8, 16, 32, 64} {
			names = append(names, strconv.Itoa(h))
			models = append(models, NewRAPID(env, opt, 20+int64(i), func(c *core.Config) { c.Hidden = h }))
		}
		if _, err := tbl.addEvalRows(env, opt, names, models); err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

// RunFig5 reproduces the Figure 5 case study: one diverse and one focused
// user from the MovieLens-like dataset, showing the topic distribution of
// their history, RAPID's learned preference θ̂, and the topics of RAPID's
// top-10 — demonstrating that diversification follows personal preference.
func RunFig5(opt Options) (*Table, error) {
	cfg := dataset.MovieLensLike(opt.Seed)
	rd, err := cachedRankedData(cfg, "DIN", opt)
	if err != nil {
		return nil, err
	}
	env := BuildEnv(rd, 0.9, opt)
	m := NewRAPID(env, opt, 12, nil)
	if err := env.FitIfTrainable(m, opt); err != nil {
		return nil, err
	}
	diverse, focused := pickCaseUsers(env)
	if diverse == nil || focused == nil {
		return nil, fmt.Errorf("experiments: could not find case-study users")
	}
	tbl := &Table{
		Title:  "Figure 5 — case study: topic distributions (history vs RAPID top-10)",
		Header: []string{"user", "kind", "history entropy", "history topics", "θ̂ top topics", "top-10 topics"},
	}
	for _, c := range []struct {
		inst *rerank.Instance
		kind string
	}{{diverse, "diverse"}, {focused, "focused"}} {
		hist := c.inst.HistoryPreference()
		theta := m.Preference(c.inst)
		ranked := rerank.Apply(m, c.inst)[:10]
		recCover := make([][]float64, len(ranked))
		for i, v := range ranked {
			recCover[i] = env.Data.Cover(v)
		}
		recPref := averageRows(recCover)
		tbl.addRow(strconv.Itoa(c.inst.User), Cell{Text: c.kind},
			Cell{V: mat.Entropy(hist) / math.Log(float64(c.inst.M)), Verb: "%.3f"},
			Cell{Text: topTopics(hist, 4)}, Cell{Text: topTopics(theta, 4)}, Cell{Text: topTopics(recPref, 4)})
	}
	tbl.Notes = []string{
		"A diverse user's recommendation spreads over their many favored topics;",
		"a focused user's stays concentrated — diversification follows the personal preference.",
	}
	return tbl, nil
}

// pickCaseUsers selects the highest- and lowest-entropy test users.
func pickCaseUsers(env *Env) (diverse, focused *rerank.Instance) {
	var hi, lo float64 = -1, math.Inf(1)
	for _, inst := range env.Test {
		h := mat.Entropy(inst.HistoryPreference())
		if h > hi {
			hi, diverse = h, inst
		}
		if h < lo {
			lo, focused = h, inst
		}
	}
	return diverse, focused
}

func averageRows(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for _, r := range rows {
		for j, v := range r {
			out[j] += v
		}
	}
	return mat.Normalize(out)
}

// topTopics renders the k largest entries of a distribution as
// "topic:weight" pairs.
func topTopics(p []float64, k int) string {
	idx := make([]int, len(p))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p[idx[a]] > p[idx[b]] })
	pairs := make([]string, min(k, len(idx)))
	for i := range pairs {
		pairs[i] = fmt.Sprintf("t%d:%.2f", idx[i], p[idx[i]])
	}
	return strings.Join(pairs, " ")
}
