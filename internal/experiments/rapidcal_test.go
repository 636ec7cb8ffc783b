package experiments

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/rerank"
)

// TestRapidCalibration is a calibration diagnostic (run with -v): RAPID-pro
// vs init and oracle on the MovieLens-like environment at λ=0.5, the
// setting where personalized diversification should pay most.
func TestRapidCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration diagnostic is slow")
	}
	opt := DefaultOptions()
	opt.Scale = 0.5
	rd, err := cachedRankedData(dataset.MovieLensLike(42), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.5, opt)
	m := NewRAPID(env, opt, 12, nil)
	if err := env.FitIfTrainable(m, opt); err != nil {
		t.Fatal(err)
	}
	for _, r := range []rerank.Reranker{rerank.Identity{}, m, oracle{env}} {
		res := env.Evaluate(r, []int{10})
		t.Logf("%-10s click@10=%.4f ndcg@10=%.4f div@10=%.4f satis@10=%.4f",
			res.Name, res.Mean("click@10"), res.Mean("ndcg@10"), res.Mean("div@10"), res.Mean("satis@10"))
	}
}
