package experiments

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/rerank"
)

// TestHeadroom verifies the environments leave meaningful room between the
// initial ranker and the oracle — the precondition for the paper's "all
// re-ranking models improve the initial ranker by a large margin". Run with
// -v to see the numbers.
func TestHeadroom(t *testing.T) {
	opt := DefaultOptions()
	opt.Scale = 0.25
	for _, cfg := range []dataset.Config{dataset.TaobaoLike(42), dataset.MovieLensLike(42)} {
		rd, err := cachedRankedData(cfg, "DIN", opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, lam := range []float64{0.5, 0.9, 1.0} {
			env := BuildEnv(rd, lam, opt)
			init := env.Evaluate(rerank.Identity{}, []int{10})
			orc := env.Evaluate(oracle{env}, []int{10})
			initC, orcC := init.Mean("click@10"), orc.Mean("click@10")
			t.Logf("%s λ=%.1f: init click@10=%.4f div@10=%.4f | oracle click@10=%.4f div@10=%.4f (headroom %+.1f%%)",
				cfg.Name, lam, initC, init.Mean("div@10"), orcC, orc.Mean("div@10"), (orcC-initC)/initC*100)
			if orcC < initC {
				t.Errorf("%s λ=%.1f: oracle (%.4f) below init (%.4f)", cfg.Name, lam, orcC, initC)
			}
		}
	}
}
