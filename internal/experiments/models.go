package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/rerank"
)

// trainCfg builds the shared neural training configuration from options.
func trainCfg(opt Options, seedOffset int64) rerank.TrainConfig {
	cfg := rerank.DefaultTrainConfig(opt.Seed + seedOffset)
	if opt.Epochs > 0 {
		cfg.Epochs = opt.Epochs
	}
	return cfg
}

// rapidConfig builds a core.Config from the environment geometry.
func rapidConfig(e *Env, opt Options, seedOffset int64) core.Config {
	cfg := core.DefaultConfig(e.Data.Cfg.UserDim, e.Data.Cfg.ItemDim, e.Data.M(), opt.Seed+seedOffset)
	if opt.Hidden > 0 {
		cfg.Hidden = opt.Hidden
	}
	if opt.D > 0 {
		cfg.D = opt.D
	}
	return cfg
}

// NewRAPID builds a RAPID model for the environment; mutate selects the
// variant (nil for the default probabilistic model).
func NewRAPID(e *Env, opt Options, seedOffset int64, mutate func(*core.Config)) *core.Model {
	cfg := rapidConfig(e, opt, seedOffset)
	if mutate != nil {
		mutate(&cfg)
	}
	m := core.New(cfg)
	m.TrainCfg = trainCfg(opt, seedOffset)
	return m
}

// roster identifies which baselines to include.
type roster int

// Rosters.
const (
	// fullRoster is every baseline plus both RAPID outputs — Tables II–IV.
	fullRoster roster = iota
	// neuralRoster is PRM, DESA, RAPID — the efficiency study (Table VI).
	neuralRoster
	// rapidOnly is just RAPID-pro.
	rapidOnly
)

// buildRerankers constructs (untrained) re-rankers for the environment.
// The returned order matches the paper's table layout.
func buildRerankers(e *Env, opt Options, roster roster) []rerank.Reranker {
	h := opt.Hidden
	switch roster {
	case neuralRoster:
		return []rerank.Reranker{
			baselines.NewPRM(h, opt.Seed+2),
			baselines.NewDESA(h, opt.Seed+7),
			NewRAPID(e, opt, 12, nil),
		}
	case rapidOnly:
		return []rerank.Reranker{NewRAPID(e, opt, 12, nil)}
	default:
		det := NewRAPID(e, opt, 11, func(c *core.Config) { c.Output = core.Deterministic })
		pro := NewRAPID(e, opt, 12, nil)
		return []rerank.Reranker{
			rerank.Identity{},
			withTrainCfg(baselines.NewDLCM(h, opt.Seed+1), opt, 1),
			withTrainCfg(baselines.NewPRM(h, opt.Seed+2), opt, 2),
			withTrainCfg(baselines.NewSetRank(h, opt.Seed+3), opt, 3),
			withTrainCfg(baselines.NewSRGA(h, opt.Seed+4), opt, 4),
			baselines.NewMMR(),
			baselines.NewDPP(),
			withTrainCfg(baselines.NewDESA(h, opt.Seed+7), opt, 7),
			baselines.NewSSD(),
			baselines.NewAdpMMR(),
			baselines.NewPDGAN(h, opt.Seed+10),
			det,
			pro,
		}
	}
}

// withTrainCfg injects the shared training configuration into the neural
// baselines, which all expose a TrainCfg field.
func withTrainCfg(r rerank.Reranker, opt Options, seedOffset int64) rerank.Reranker {
	cfg := trainCfg(opt, seedOffset)
	switch m := r.(type) {
	case *baselines.DLCM:
		m.TrainCfg = cfg
	case *baselines.PRM:
		m.TrainCfg = cfg
	case *baselines.SetRank:
		m.TrainCfg = cfg
	case *baselines.SRGA:
		m.TrainCfg = cfg
	case *baselines.DESA:
		m.TrainCfg = cfg
	}
	return r
}
