package experiments

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rerank"
)

// TestGreedyOracleNearExhaustive validates Theorem 5.1's premise on real
// instances: the greedy oracle's expected clicks must be within the
// submodular approximation guarantee of the exact optimum, and in practice
// very close to it.
func TestGreedyOracleNearExhaustive(t *testing.T) {
	opt := tinyOptions(48)
	rd, err := cachedRankedData(dataset.TaobaoLike(48), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.5, opt)
	greedy := oracle{env}
	exact := exhaustiveOracle{Env: env, Limit: 6, K: 6}
	var gSum, eSum float64
	n := len(env.Test)
	if n > 10 {
		n = 10
	}
	for _, inst := range env.Test[:n] {
		gOrder := rerank.Apply(greedy, inst)
		eOrder := rerank.Apply(exact, inst)
		g := metrics.ClickAtK(env.DCM.ExpectedClicks(inst.User, gOrder), 6)
		e := metrics.ClickAtK(env.DCM.ExpectedClicks(inst.User, eOrder), 6)
		if g > e+1e-9 {
			t.Fatalf("greedy (%v) beat the exhaustive optimum (%v)?", g, e)
		}
		gSum += g
		eSum += e
	}
	if gSum < 0.95*eSum {
		t.Fatalf("greedy oracle captured only %.1f%% of the exact optimum", gSum/eSum*100)
	}
	t.Logf("greedy/exact expected-click ratio over %d requests: %.4f", n, gSum/eSum)
}

// TestExhaustiveOracleFullRanking checks the Reranker contract.
func TestExhaustiveOracleFullRanking(t *testing.T) {
	opt := tinyOptions(49)
	rd, err := cachedRankedData(dataset.TaobaoLike(49), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.9, opt)
	inst := env.Test[0]
	exact := exhaustiveOracle{Env: env, Limit: 5}
	s := exact.Scores(inst)
	if len(s) != inst.L() {
		t.Fatalf("%d scores for %d items", len(s), inst.L())
	}
	seen := map[float64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate score — not a total order")
		}
		seen[v] = true
	}
}
