package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/rerank"
)

// epochs is how many epochs the harness trains a neural re-ranker for:
// Options.Epochs, or DefaultTrainConfig's when that is unset.
func epochs(opt Options) int {
	if opt.Epochs > 0 {
		return opt.Epochs
	}
	return rerank.DefaultTrainConfig(0).Epochs
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

// NewRAPID builds a RAPID model for the environment, seeded Options.Seed
// plus seedOffset and set to train the harness's epochs; mutate selects the
// variant (nil for the default probabilistic model).
func NewRAPID(e *Env, opt Options, seedOffset int64, mutate func(*core.Config)) *core.Model {
	cfg := rapidConfig(e, opt, seedOffset)
	if mutate != nil {
		mutate(&cfg)
	}
	m := core.New(cfg)
	m.TrainCfg.Epochs = epochs(opt)
	return m
}

// The rosters, in the paper's table order: every baseline plus both RAPID
// outputs (Tables II–IV), PRM, DESA and RAPID for the efficiency study
// (Table VI), and the extended table's Seq2Slate beside Init, PRM and RAPID.
var (
	fullRoster     = []string{"Init", "DLCM", "PRM", "SetRank", "SRGA", "MMR", "DPP", "DESA", "SSD", "adpMMR", "PD-GAN", "RAPID-det", "RAPID-pro"}
	neuralRoster   = []string{"PRM", "DESA", "RAPID-pro"}
	extendedRoster = []string{"Init", "PRM", "Seq2Slate", "RAPID-pro"}
)

// buildRerankers builds the named re-rankers, untrained, in order.
func buildRerankers(e *Env, opt Options, names []string) []rerank.Reranker {
	rs := make([]rerank.Reranker, len(names))
	for i, name := range names {
		rs[i] = newReranker(e, opt, name)
	}
	return rs
}

// newReranker builds the untrained re-ranker whose Name is name, seeded
// Options.Seed plus the model's own offset; a neural one trains the
// harness's epochs (PD-GAN keeps its own pre-training and adversarial
// schedule). Every table builds its models here, so a model trains
// alike in each table it appears in.
func newReranker(e *Env, opt Options, name string) rerank.Reranker {
	h, n := opt.Hidden, epochs(opt)
	switch name {
	case "Init":
		return rerank.Identity{}
	case "DLCM":
		m := baselines.NewDLCM(h, opt.Seed+1)
		m.TrainCfg.Epochs = n
		return m
	case "PRM":
		m := baselines.NewPRM(h, opt.Seed+2)
		m.TrainCfg.Epochs = n
		return m
	case "SetRank":
		m := baselines.NewSetRank(h, opt.Seed+3)
		m.TrainCfg.Epochs = n
		return m
	case "SRGA":
		m := baselines.NewSRGA(h, opt.Seed+4)
		m.TrainCfg.Epochs = n
		return m
	case "MMR":
		return baselines.NewMMR()
	case "DPP":
		return baselines.NewDPP()
	case "DESA":
		m := baselines.NewDESA(h, opt.Seed+7)
		m.TrainCfg.Epochs = n
		return m
	case "SSD":
		return baselines.NewSSD()
	case "adpMMR":
		return baselines.NewAdpMMR()
	case "PD-GAN":
		return baselines.NewPDGAN(h, opt.Seed+10)
	case "RAPID-det":
		return NewRAPID(e, opt, 11, func(c *core.Config) { c.Output = core.Deterministic })
	case "RAPID-pro":
		return NewRAPID(e, opt, 12, nil)
	case "Seq2Slate":
		m := baselines.NewSeq2Slate(h, opt.Seed+14)
		m.TrainCfg.Epochs = n
		return m
	}
	panic("experiments: no re-ranker named " + name)
}
