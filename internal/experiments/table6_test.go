package experiments

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rerank"
)

// epochCounter counts the epochs a training run reports.
type epochCounter struct{ n int }

func (c *epochCounter) ObserveEpoch(rerank.EpochStats) { c.n++ }

// TestTable6TrainsHarnessEpochs: Table VI's PRM, DESA and RAPID-pro each
// train Options.Epochs epochs, seeded as in every other table, so train-b
// divides each model's time by the epochs it ran.
func TestTable6TrainsHarnessEpochs(t *testing.T) {
	opt := tinyOptions(53)
	rd, err := cachedRankedData(dataset.TaobaoLike(53), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.9, opt)
	offsets := map[string]int64{"PRM": 2, "DESA": 7, "RAPID-pro": 12}
	rs := buildRerankers(env, opt, neuralRoster)
	if len(rs) != len(offsets) {
		t.Fatalf("Table VI trains %d models, want %d", len(rs), len(offsets))
	}
	for _, r := range rs {
		var cfg *rerank.TrainConfig
		switch m := r.(type) {
		case *baselines.PRM:
			cfg = &m.TrainCfg
		case *baselines.DESA:
			cfg = &m.TrainCfg
		case *core.Model:
			cfg = &m.TrainCfg
		default:
			t.Fatalf("Table VI trains %s (%T)", r.Name(), r)
		}
		if want := opt.Seed + offsets[r.Name()]; cfg.Seed != want {
			t.Errorf("%s trains with seed %d, want %d", r.Name(), cfg.Seed, want)
		}
		var c epochCounter
		cfg.Observer = &c
		if err := r.(rerank.Trainable).Fit(env.Train); err != nil {
			t.Fatal(err)
		}
		if c.n != opt.Epochs {
			t.Errorf("%s trained %d epochs, want Options.Epochs = %d", r.Name(), c.n, opt.Epochs)
		}
	}
}

// TestExtendedTrainsHarnessEpochs: the extended table's Seq2Slate, which
// has no epoch observer, is set to train Options.Epochs epochs, seeded as
// in every other table.
func TestExtendedTrainsHarnessEpochs(t *testing.T) {
	opt := tinyOptions(53)
	rd, err := cachedRankedData(dataset.TaobaoLike(53), "DIN", opt)
	if err != nil {
		t.Fatal(err)
	}
	env := BuildEnv(rd, 0.9, opt)
	for _, r := range buildRerankers(env, opt, extendedRoster) {
		m, ok := r.(*baselines.Seq2Slate)
		if !ok {
			continue
		}
		if want := opt.Seed + 14; m.Seed != want {
			t.Errorf("Seq2Slate seeded %d, want %d", m.Seed, want)
		}
		if m.Epochs != opt.Epochs {
			t.Errorf("Seq2Slate trains %d epochs, want Options.Epochs = %d", m.Epochs, opt.Epochs)
		}
		return
	}
	t.Fatal("the extended table has no Seq2Slate")
}
