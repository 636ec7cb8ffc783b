package experiments

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rerank"
)

// RunPersonalization quantifies the Figure 5 claim at population level
// (RQ5): if RAPID really diversifies *per user*, the diversity of its
// delivered top-10 should track the user's ground-truth diversity appetite
// — high-appetite users get broader lists, low-appetite users narrower
// ones — while a relevance-only model shows a weaker relationship. The
// driver reports the Pearson correlation between appetite and delivered
// div@10 for Init, PRM and RAPID, plus the diverse-vs-focused segment gap.
func RunPersonalization(opt Options) (*Table, error) {
	rd, err := cachedRankedData(dataset.MovieLensLike(opt.Seed), "DIN", opt)
	if err != nil {
		return nil, err
	}
	env := BuildEnv(rd, 0.5, opt)
	models := []rerank.Reranker{
		rerank.Identity{},
		withTrainCfg(baselines.NewPRM(opt.Hidden, opt.Seed+2), opt, 2),
		NewRAPID(env, opt, 12, nil),
	}
	tbl := &Table{
		Title:  "Personalization analysis (RQ5) — appetite vs delivered diversity (movielens, λ=0.5)",
		Header: []string{"model", "corr(appetite, div@10)", "div@10 diverse users", "div@10 focused users", "gap"},
		Notes: []string{
			"Appetite is the ground-truth per-user diversity weight scale (never visible to models);",
			"a personalized diversifier should show a higher correlation and a larger segment gap.",
		},
	}
	for _, r := range models {
		if err := env.FitIfTrainable(r, opt); err != nil {
			return nil, err
		}
		var appetites, divs []float64
		var divSum, focSum [2]float64
		var divN, focN float64
		for _, inst := range env.Test {
			ranked := rerank.Apply(r, inst)
			cover := make([][]float64, len(ranked))
			for i, v := range ranked {
				cover[i] = env.Data.Cover(v)
			}
			d := metrics.DivAtK(cover, env.Data.M(), 10)
			app := env.Data.Users[inst.User].DivAppetite
			appetites = append(appetites, app)
			divs = append(divs, d)
			if app >= 0.6 {
				divSum[0] += d
				divN++
			} else {
				focSum[0] += d
				focN++
			}
		}
		var dMean, fMean float64
		if divN > 0 {
			dMean = divSum[0] / divN
		}
		if focN > 0 {
			fMean = focSum[0] / focN
		}
		tbl.addRow(r.Name(),
			fmt.Sprintf("%.3f", pearson(appetites, divs)),
			f4(dMean), f4(fMean), fmt.Sprintf("%+.3f", dMean-fMean))
	}
	return tbl, nil
}

// pearson computes the Pearson correlation coefficient of two equal-length
// samples (0 for degenerate inputs).
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 || len(x) != len(y) {
		return 0
	}
	mx, my := metrics.Mean(x), metrics.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
