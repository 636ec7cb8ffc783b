package experiments

import (
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/rerank"
)

// evalFixture is a small fixed environment and the offline round's three
// re-rankers: an untrained RAPID-pro (the forward costs what a trained one
// does), MMR and DPP.
func evalFixture(tb testing.TB) (*Env, []rerank.Reranker) {
	tb.Helper()
	opt := tinyOptions(46)
	rd, err := cachedRankedData(dataset.TaobaoLike(46), "DIN", opt)
	if err != nil {
		tb.Fatal(err)
	}
	env := BuildEnv(rd, 0.5, opt)
	return env, []rerank.Reranker{NewRAPID(env, opt, 12, nil), baselines.NewMMR(), baselines.NewDPP()}
}

// evalCutoffs are the offline round's cutoffs.
var evalCutoffs = []int{5, 10}

// TestEvaluateAllocCeiling bounds what evaluating one list costs — re-rank,
// click model, every metric at two cutoffs — averaged over the offline
// round's three re-rankers, on two workers. 16.1 allocations per list today
// (RAPID-pro 13.8, MMR 14.8, DPP 19.8): the re-ranker's own work, the click
// model's attractions and expected clicks, and a share of the per-call
// keys, table and result. The ceiling only moves down.
func TestEvaluateAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // Evaluate's worker count
	env, rs := evalFixture(t)
	var total float64
	for _, r := range rs {
		total += testing.AllocsPerRun(5, func() { env.Evaluate(r, evalCutoffs) })
	}
	perList := total / float64(len(rs)*len(env.Test))
	t.Logf("%.1f allocations per evaluated list", perList)
	if perList > 17 {
		t.Errorf("Evaluate: %.1f allocations per list, ceiling 17", perList)
	}
}

// BenchmarkEvaluate evaluates RAPID-pro, MMR and DPP on the small fixed
// environment; ns/op divided by 3·len(env.Test) is the per-list cost.
func BenchmarkEvaluate(b *testing.B) {
	env, rs := evalFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rs {
			env.Evaluate(r, evalCutoffs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)*len(env.Test)), "ns/list")
}
