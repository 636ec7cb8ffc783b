// Package rapid is the public API of this reproduction of "Personalized
// Diversification for Neural Re-ranking in Recommendation" (ICDE 2023).
// It re-exports the RAPID model, the dataset generators, the DCM click
// environment, the baselines roster and the experiment drivers, so that
// applications (see examples/) can be written against one import.
//
// Typical use:
//
//	cfg := rapid.MovieLensLike(7)
//	rd, _ := rapid.BuildRankedData(cfg, rapid.NewDIN(7), rapid.DefaultOptions())
//	env := rapid.BuildEnv(rd, 0.9, rapid.DefaultOptions())
//	model := rapid.NewModel(rapid.DefaultModelConfig(cfg.UserDim, cfg.ItemDim, cfg.Topics, 7))
//	_ = model.Fit(env.Train)
//	ranked := rapid.Apply(model, env.Test[0])
package rapid

import (
	"repro/internal/bandit"
	"repro/internal/baselines"
	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/ranker"
	"repro/internal/rerank"
)

// Model construction (internal/core).
type (
	// Model is the RAPID re-ranker.
	Model = core.Model
	// ModelConfig parameterizes a RAPID model.
	ModelConfig = core.Config
	// OutputMode selects deterministic (Eq. 7) vs probabilistic (Eqs.
	// 8–10) scoring.
	OutputMode = core.OutputMode
)

// Output modes and ablation selectors.
const (
	Deterministic      = core.Deterministic
	Probabilistic      = core.Probabilistic
	BiLSTMEncoder      = core.BiLSTMEncoder
	TransformerEncoder = core.TransformerEncoder
	LSTMAgg            = core.LSTMAgg
	MeanAgg            = core.MeanAgg
)

// NewModel builds a RAPID model.
func NewModel(cfg ModelConfig) *Model { return core.New(cfg) }

// DefaultModelConfig mirrors the paper's chosen hyper-parameters.
func DefaultModelConfig(userDim, itemDim, topics int, seed int64) ModelConfig {
	return core.DefaultConfig(userDim, itemDim, topics, seed)
}

// Re-ranking abstractions (internal/rerank).
type (
	// Reranker scores the items of an instance.
	Reranker = rerank.Reranker
	// Trainable is a re-ranker that learns from labeled instances.
	Trainable = rerank.Trainable
	// Instance is one re-ranking request.
	Instance = rerank.Instance
	// TrainConfig tunes the shared neural training loop.
	TrainConfig = rerank.TrainConfig
)

// Apply returns inst's items reordered by r, best first.
func Apply(r Reranker, inst *Instance) []int { return rerank.Apply(r, inst) }

// NewInstance assembles a re-ranking instance from a dataset request.
var NewInstance = rerank.NewInstance

// Datasets (internal/dataset).
type (
	// DataConfig controls synthetic dataset generation.
	DataConfig = dataset.Config
	// Data is a generated universe with its splits.
	Data = dataset.Dataset
	// Request is a prepared re-ranking request.
	Request = dataset.Request
)

// Dataset presets and generation.
var (
	TaobaoLike    = dataset.TaobaoLike
	MovieLensLike = dataset.MovieLensLike
	AppStoreLike  = dataset.AppStoreLike
	GenerateData  = dataset.Generate
)

// Initial rankers (internal/ranker).
type (
	// Ranker is an initial (pre-re-ranking) scoring model. Score is safe
	// for concurrent use once Fit has returned.
	Ranker = ranker.Ranker
)

// Initial-ranker constructors.
var (
	NewDIN        = ranker.NewDIN
	NewSVMRank    = ranker.NewSVMRank
	NewLambdaMART = ranker.NewLambdaMART
)

// Click environment (internal/clickmodel).
type (
	// DCM is the dependent click model environment.
	DCM = clickmodel.DCM
	// PBM is the position-based click model used for robustness checks.
	PBM = clickmodel.PBM
)

// Baselines (internal/baselines).
var (
	NewDLCM    = baselines.NewDLCM
	NewPRM     = baselines.NewPRM
	NewSetRank = baselines.NewSetRank
	NewSRGA    = baselines.NewSRGA
	NewMMR     = baselines.NewMMR
	NewDPP     = baselines.NewDPP
	NewDESA    = baselines.NewDESA
	NewSSD     = baselines.NewSSD
	NewAdpMMR  = baselines.NewAdpMMR
	NewPDGAN   = baselines.NewPDGAN
	// NewSeq2Slate is an extra pointer-network baseline (Bello et al.,
	// cited in the paper's introduction), not part of the paper's tables.
	NewSeq2Slate = baselines.NewSeq2Slate
)

// Experiments (internal/experiments): drivers for every paper table/figure.
type (
	// Options sizes an experiment run.
	Options = experiments.Options
	// Table holds an experiment's numbers and renders them as text or JSON.
	Table = experiments.Table
	// Env is a prepared (dataset, ranker, λ) environment.
	Env = experiments.Env
	// RankedData couples a dataset with a fitted initial ranker.
	RankedData = experiments.RankedData
	// EvalResult holds per-request metric samples.
	EvalResult = experiments.EvalResult
	// RegretOptions sizes the Theorem 5.1 simulation.
	RegretOptions = experiments.RegretOptions
)

// Experiment drivers and helpers.
var (
	DefaultOptions       = experiments.DefaultOptions
	BuildRankedData      = experiments.BuildRankedData
	BuildEnv             = experiments.BuildEnv
	RunTable2            = experiments.RunTable2
	RunTable3            = experiments.RunTable3
	RunTable4            = experiments.RunTable4
	RunTable5            = experiments.RunTable5
	RunTable6            = experiments.RunTable6
	RunFig3              = experiments.RunFig3
	RunFig4              = experiments.RunFig4
	RunFig5              = experiments.RunFig5
	RunRegret            = experiments.RunRegret
	DefaultRegretOptions = experiments.DefaultRegretOptions
	RunDivFnAblation     = experiments.RunDivFnAblation
	RunRobustness        = experiments.RunRobustness
	RunExtended          = experiments.RunExtended
	RunPersonalization   = experiments.RunPersonalization
)

// Bandit analysis (internal/bandit).
type (
	// RegretCurve is the outcome of one Theorem 5.1 simulation.
	RegretCurve = bandit.RegretCurve
)

// Metrics (internal/metrics).
var (
	ClickAtK   = metrics.ClickAtK
	NDCGAtK    = metrics.NDCGAtK
	DivAtK     = metrics.DivAtK
	RevAtK     = metrics.RevAtK
	WelchTTest = metrics.WelchTTest
)
