package rerank

import (
	"math/rand"
	"sync"

	"repro/internal/mat"
	"repro/internal/nn"
)

// LogitsFunc is a listwise net's forward pass: ListwiseModel.Logits over
// the parameters a Net's build func registered.
type LogitsFunc func(t *nn.Tape, inst *Instance, train bool) *nn.Node

// Net is a listwise neural re-ranker trained with TrainListwise: the
// parameters, the forward pass, and the TrainConfig the net is built with.
// A baseline embeds it and adds its Name.
//
// The parameters are built once, by the build func, from the first instance
// the net sees — the geometry (feature width, topics) arrives with it — so
// an untrained net scored from several goroutines builds one parameter set.
type Net struct {
	// TrainCfg is DefaultTrainConfig of the net's seed.
	TrainCfg TrainConfig

	// seed seeds the build; it stays apart from TrainCfg.Seed, which a
	// caller may change before the first Fit.
	seed   int64
	build  func(ps *nn.ParamSet, inst *Instance, rng *rand.Rand) LogitsFunc
	once   sync.Once
	ps     *nn.ParamSet
	logits LogitsFunc
}

// NewNet returns a net whose build func registers its parameters on ps,
// drawing initial values from rng (seeded with seed), and returns the
// forward pass over them.
func NewNet(seed int64, build func(ps *nn.ParamSet, inst *Instance, rng *rand.Rand) LogitsFunc) *Net {
	return &Net{TrainCfg: DefaultTrainConfig(seed), seed: seed, build: build}
}

func (n *Net) init(inst *Instance) {
	n.once.Do(func() {
		n.ps = nn.NewParamSet()
		n.logits = n.build(n.ps, inst, rand.New(rand.NewSource(n.seed)))
	})
}

// Params implements ListwiseModel; it is nil until the net is built.
func (n *Net) Params() *nn.ParamSet { return n.ps }

// Logits implements ListwiseModel.
func (n *Net) Logits(t *nn.Tape, inst *Instance, train bool) *nn.Node {
	n.init(inst)
	return n.logits(t, inst, train)
}

// Fit implements Trainable with TrainListwise under TrainCfg.
func (n *Net) Fit(train []*Instance) error {
	if len(train) > 0 {
		n.init(train[0])
	}
	_, err := TrainListwise(n, train, n.TrainCfg)
	return err
}

// scoreTapes holds inference tapes between Scores calls: a tape keeps its
// node arena and buffers across Reset.
var scoreTapes = sync.Pool{New: func() any { return nn.NewTape() }}

// Scores implements Reranker: the sigmoid of the inference-mode logits,
// the φ_R of Eq. (7).
func (n *Net) Scores(inst *Instance) []float64 {
	t := scoreTapes.Get().(*nn.Tape)
	logits := n.Logits(t, inst, false)
	out := make([]float64, logits.Value.Rows)
	for i := range out {
		out[i] = mat.Sigmoid(logits.Value.Data[i])
	}
	t.Reset()
	scoreTapes.Put(t)
	return out
}
