// Quickstart: generate a small MovieLens-like universe, train an initial
// ranker and RAPID, and re-rank one request — the minimal end-to-end tour
// of the public API.
package main

import (
	"fmt"
	"os"

	rapid "repro"
)

func main() {
	opt := rapid.DefaultOptions()
	opt.Scale = 0.1 // keep the demo fast
	opt.Log = os.Stderr

	// 1. Dataset + initial ranker → initial lists.
	cfg := rapid.MovieLensLike(opt.Seed)
	rd, err := rapid.BuildRankedData(cfg, rapid.NewDIN(opt.Seed), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// 2. DCM click environment at λ=0.9 (mostly relevance-driven clicks).
	env := rapid.BuildEnv(rd, 0.9, opt)

	// 3. Train RAPID on the simulated click logs.
	model := rapid.NewModel(rapid.DefaultModelConfig(cfg.UserDim, cfg.ItemDim, cfg.Topics, opt.Seed))
	if err := model.Fit(env.Train); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// 4. Re-rank the first test request and inspect the result.
	inst := env.Test[0]
	fmt.Printf("user %d, initial list: %v\n", inst.User, inst.Items)
	ranked := rapid.Apply(model, inst)
	fmt.Printf("re-ranked:             %v\n", ranked)
	fmt.Printf("learned preference θ̂ (first 8 topics):")
	for j, p := range model.Preference(inst) {
		if j >= 8 {
			break
		}
		fmt.Printf(" %.2f", p)
	}
	fmt.Println()

	// 5. Compare against the untouched initial ranking.
	for _, k := range []int{5, 10} {
		initExp := env.DCM.ExpectedClicks(inst.User, inst.Items)
		rapidExp := env.DCM.ExpectedClicks(inst.User, ranked)
		fmt.Printf("click@%d: init %.4f → RAPID %.4f\n",
			k, rapid.ClickAtK(initExp, k), rapid.ClickAtK(rapidExp, k))
	}
}
