// Benchmarks regenerating every table and figure of the paper at a reduced
// scale (the CLI `rapidbench -exp <id> -scale 1` runs the full harness
// size). One benchmark iteration runs the complete experiment — dataset
// generation, initial-ranker training, click simulation, re-ranker
// training, evaluation — so b.N is typically 1; the reported time is the
// end-to-end cost of the experiment.
//
// Hot-path micro-benchmarks live beside their code (`make bench-core`) and
// as per-layer probes of the repository benchmark (bench/README.md).
package rapid

import (
	"testing"

	"repro/internal/bandit"
	"repro/internal/experiments"
)

// benchScale keeps one experiment iteration in the tens of seconds.
const benchScale = 0.08

func benchOptions(seed int64) experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Scale = benchScale
	opt.Seed = seed
	opt.Epochs = 4
	return opt
}

func runTables(b *testing.B, f func(opt experiments.Options) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := f(benchOptions(int64(42 + i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2a — Table II(a): overall performance at λ=0.5.
func BenchmarkTable2a(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunTable2(0.5, opt)
		return err
	})
}

// BenchmarkTable2b — Table II(b): overall performance at λ=0.9.
func BenchmarkTable2b(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunTable2(0.9, opt)
		return err
	})
}

// BenchmarkTable2c — Table II(c): overall performance at λ=1.0.
func BenchmarkTable2c(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunTable2(1.0, opt)
		return err
	})
}

// BenchmarkTable3 — Table III: App Store with revenue metrics.
func BenchmarkTable3(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunTable3(opt)
		return err
	})
}

// BenchmarkTable4 — Table IV: SVMRank and LambdaMART initial rankers.
func BenchmarkTable4(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunTable4(opt)
		return err
	})
}

// BenchmarkTable5 — Table V: behavior-sequence lengths D ∈ {3,5,10}.
func BenchmarkTable5(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunTable5(opt)
		return err
	})
}

// BenchmarkTable6 — Table VI: training/inference wall-clock comparison.
func BenchmarkTable6(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunTable6(opt)
		return err
	})
}

// BenchmarkFig3 — Figure 3: ablation variants.
func BenchmarkFig3(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunFig3(opt)
		return err
	})
}

// BenchmarkFig4 — Figure 4: hidden-size sweep.
func BenchmarkFig4(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunFig4(opt)
		return err
	})
}

// BenchmarkFig5 — Figure 5: personalized-preference case study.
func BenchmarkFig5(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunFig5(opt)
		return err
	})
}

// BenchmarkDivFn — extension: RAPID under alternative submodular
// diversity functions (the paper's Section III-C remark).
func BenchmarkDivFn(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunDivFnAblation(opt)
		return err
	})
}

// BenchmarkRobust — extension: DCM-trained models evaluated under a PBM.
func BenchmarkRobust(b *testing.B) {
	runTables(b, func(opt experiments.Options) error {
		_, err := experiments.RunRobustness(opt)
		return err
	})
}

// BenchmarkRegret — Theorem 5.1: Õ(√n) regret simulation (UCB variant).
func BenchmarkRegret(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := bandit.NewEnv(6, 4, 4, 20, 80, 15, int64(7+i))
		bandit.SimulateRegret(env, bandit.UCB, 800, 100, 0.1)
	}
}
