// Package core implements RAPID — Re-ranking with Personalized
// Diversification (Liu, Xi, et al., ICDE 2023). The model has three parts
// (Figure 2 of the paper):
//
//   - a listwise relevance estimator: a Bi-LSTM over the initial list's
//     per-item embeddings e_{R(i)} = [x_u, x_{R(i)}, τ_{R(i)}] capturing
//     cross-item interactions (Section III-B);
//   - a personalized diversity estimator: per-topic LSTMs over the user's
//     split behavior sequences (intra-topic interactions), self-attention
//     across the topic summaries (inter-topic interactions, Eq. 2), an MLP
//     producing the preference distribution θ̂ (Eq. 3), and the
//     personalized diversity gain Δ_R(R(i)) = θ̂ ⊙ d_R(R(i)) (Eqs. 4–6);
//   - a re-ranker fusing both signals with an MLP, either deterministically
//     (Eq. 7) or probabilistically with a reparameterized Gaussian score
//     and UCB inference (Eqs. 8–10).
//
// Training minimizes the click cross-entropy of Eq. (11) end-to-end, so the
// relevance–diversity tradeoff is learned rather than hand-tuned.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
	"repro/internal/topics"
)

// OutputMode selects the re-ranker head.
type OutputMode int

// Output modes.
const (
	// Deterministic is Eq. (7): a single MLP producing φ_R.
	Deterministic OutputMode = iota
	// Probabilistic is Eqs. (8)–(10): mean and std heads, reparameterized
	// sampling in training, UCB (μ + Σ) at inference.
	Probabilistic
)

// ListEncoder selects the listwise relevance estimator.
type ListEncoder int

// List encoders.
const (
	// BiLSTMEncoder is the paper's default (Section III-B).
	BiLSTMEncoder ListEncoder = iota
	// TransformerEncoder is the RAPID-trans ablation.
	TransformerEncoder
)

// TopicAgg selects how per-topic behavior sequences are summarized.
type TopicAgg int

// Topic aggregators.
const (
	// LSTMAgg encodes each topical sequence with an LSTM and keeps the
	// final state (the paper's design).
	LSTMAgg TopicAgg = iota
	// MeanAgg is the RAPID-mean ablation: mean pooling of embedded items.
	MeanAgg
)

// Config parameterizes a RAPID model.
type Config struct {
	// UserDim, ItemDim and Topics describe the instance geometry
	// (q_u, q_v, m).
	UserDim, ItemDim, Topics int
	// Hidden is q_h, the paper's grid {8, 16, 32, 64}.
	Hidden int
	// D is the maximum per-topic behavior-sequence length (default 5).
	D int
	// Output selects RAPID-det vs RAPID-pro.
	Output OutputMode
	// Encoder selects Bi-LSTM vs transformer listwise context.
	Encoder ListEncoder
	// Agg selects LSTM vs mean intra-topic aggregation.
	Agg TopicAgg
	// UseDiversity disables the entire personalized diversity estimator
	// when false (the RAPID-RNN ablation).
	UseDiversity bool
	// Heads is the attention head count for the transformer encoder.
	Heads int
	// Seed drives parameter init and the training-time Gaussian noise ξ.
	Seed int64
	// DiversityFn selects the submodular diversity function behind
	// Eqs. (4)–(5): "prob-coverage" (default, the paper's choice),
	// "saturated-coverage" or "facility-location". The paper notes the
	// coverage function is replaceable by any submodular alternative.
	DiversityFn string
}

// DefaultConfig mirrors the paper's chosen hyper-parameters (hidden 16,
// D = 5, probabilistic output).
func DefaultConfig(userDim, itemDim, topics int, seed int64) Config {
	return Config{
		UserDim: userDim, ItemDim: itemDim, Topics: topics,
		Hidden: 16, D: 5,
		Output: Probabilistic, Encoder: BiLSTMEncoder, Agg: LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: seed,
	}
}

// Model is a trainable RAPID re-ranker. It implements rerank.Reranker,
// rerank.Trainable and rerank.ListwiseModel.
type Model struct {
	Cfg Config

	ps *nn.ParamSet

	// Listwise relevance estimator.
	bilstm    *nn.BiLSTM
	transProj *nn.Dense
	trans     *nn.TransformerBlock
	transOut  *nn.Dense

	// Personalized diversity estimator.
	topicLSTM *nn.LSTM
	meanEmbed *nn.Dense
	prefMLP   *nn.MLP

	// Re-ranker heads.
	headDet   *nn.MLP
	headMu    *nn.MLP
	headSigma *nn.MLP

	divFn topics.DiversityFunction
	noise *rand.Rand
	// arenas recycles inference scratch across calls; each Score/ScoreBatch/
	// EncodeUserState call borrows one *arena for its duration (forward.go).
	arenas sync.Pool
	// preNoise holds the ξ vectors pre-drawn by PrepareInstance for the
	// parallel trainer. It is written only between batches (on the trainer
	// goroutine) and read by logits inside the batch, so no lock is needed.
	preNoise map[*rerank.Instance]*mat.Matrix
	// TrainCfg is what Fit trains with; New sets
	// rerank.DefaultTrainConfig(Cfg.Seed).
	TrainCfg rerank.TrainConfig
}

// New constructs a RAPID model from the config.
func New(cfg Config) *Model {
	if cfg.Hidden <= 0 || cfg.Topics <= 0 || cfg.D <= 0 {
		panic(fmt.Sprintf("core: invalid config %+v", cfg))
	}
	divFn, err := topics.DiversityFunctionByName(cfg.DiversityFn)
	if err != nil {
		panic(err)
	}
	m := &Model{Cfg: cfg, ps: nn.NewParamSet(), divFn: divFn, noise: rand.New(rand.NewSource(cfg.Seed + 7)),
		TrainCfg: rerank.DefaultTrainConfig(cfg.Seed)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	featDim := cfg.UserDim + cfg.ItemDim + cfg.Topics + 1 // + initial score
	relDim := 2 * cfg.Hidden
	switch cfg.Encoder {
	case BiLSTMEncoder:
		m.bilstm = nn.NewBiLSTM(m.ps, "rapid.rel", featDim, cfg.Hidden, rng)
	case TransformerEncoder:
		m.transProj = nn.NewDense(m.ps, "rapid.rel.proj", featDim, relDim, nn.Linear, rng)
		m.trans = nn.NewTransformerBlock(m.ps, "rapid.rel.trans", relDim, cfg.Heads, 2*relDim, rng)
		m.transOut = nn.NewDense(m.ps, "rapid.rel.out", relDim, relDim, nn.Tanh, rng)
	}
	if cfg.UseDiversity {
		seqDim := cfg.UserDim + cfg.ItemDim
		switch cfg.Agg {
		case LSTMAgg:
			m.topicLSTM = nn.NewLSTM(m.ps, "rapid.div.lstm", seqDim, cfg.Hidden, rng)
		case MeanAgg:
			m.meanEmbed = nn.NewDense(m.ps, "rapid.div.embed", seqDim, cfg.Hidden, nn.Tanh, rng)
		}
		// MLP_θ of Eq. (3) maps the attended topic representations
		// [a_1 … a_m] to the m-dimensional preference. We apply it with
		// weights shared across topic rows (a_j ↦ θ̂_j) rather than on the
		// flattened concatenation: at the paper's data scale both are
		// equivalent in capacity, but at this reproduction's scale the
		// flattened variant (m·q_h inputs per topic) cannot be estimated
		// from thousands — rather than millions — of requests. The
		// substitution is documented in DESIGN.md.
		m.prefMLP = nn.NewMLP(m.ps, "rapid.div.pref",
			[]int{cfg.Hidden, cfg.Hidden, 1}, nn.ReLU, nn.SigmoidAct, rng)
	}
	headIn := m.headIn()
	switch cfg.Output {
	case Deterministic:
		m.headDet = nn.NewMLP(m.ps, "rapid.head", []int{headIn, cfg.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	case Probabilistic:
		m.headMu = nn.NewMLP(m.ps, "rapid.head.mu", []int{headIn, cfg.Hidden, 1}, nn.ReLU, nn.Linear, rng)
		m.headSigma = nn.NewMLP(m.ps, "rapid.head.sigma", []int{headIn, cfg.Hidden, 1}, nn.ReLU, nn.Linear, rng)
		// Start the uncertainty head small (softplus(−2) ≈ 0.13): a large
		// initial Σ is an uncalibrated optimism bonus that corrupts the
		// UCB ordering early in training.
		last := m.headSigma.Layers[len(m.headSigma.Layers)-1]
		last.B.Value.Fill(-2)
	}
	return m
}

// Name implements rerank.Reranker.
func (m *Model) Name() string {
	switch {
	case !m.Cfg.UseDiversity:
		return "RAPID-RNN"
	case m.Cfg.Agg == MeanAgg:
		return "RAPID-mean"
	case m.Cfg.Encoder == TransformerEncoder:
		return "RAPID-trans"
	case m.Cfg.Output == Deterministic:
		return "RAPID-det"
	default:
		return "RAPID-pro"
	}
}

// Params implements rerank.ListwiseModel; it is also what a checkpoint
// saves and loads.
func (m *Model) Params() *nn.ParamSet { return m.ps }

// relevance builds H_R, the L×2q_h listwise relevance representation.
func (m *Model) relevance(t *nn.Tape, x *nn.Node) *nn.Node {
	if m.Cfg.Encoder == BiLSTMEncoder {
		return m.bilstm.Forward(t, x)
	}
	h := m.transProj.Forward(t, x)
	h = m.trans.Forward(t, h, nil)
	return m.transOut.Forward(t, h)
}

// preference builds θ̂, the 1×m personalized preference distribution, from
// the instance's per-topic behavior sequences (Eqs. 2–3).
func (m *Model) preference(t *nn.Tape, inst *rerank.Instance) *nn.Node {
	summaries := make([]*nn.Node, m.Cfg.Topics)
	for j := 0; j < m.Cfg.Topics; j++ {
		seq := t.Constant(inst.TopicSeqFeatures(j, m.Cfg.D))
		switch m.Cfg.Agg {
		case LSTMAgg:
			summaries[j] = m.topicLSTM.Last(t, seq)
		case MeanAgg:
			if seq.Value.Rows == 0 {
				summaries[j] = t.Constant(mat.New(1, m.Cfg.Hidden))
			} else {
				summaries[j] = t.MeanRows(m.meanEmbed.Forward(t, seq))
			}
		}
	}
	v := t.ConcatRows(summaries...) // m×q_h
	a := nn.SelfAttention(t, v)     // Eq. (2)
	// Eq. (3): map the attended rows to the preference distribution
	// θ̂ ∈ ℝ^m (row-shared application; see the construction note).
	return t.Transpose(m.prefMLP.Forward(t, a)) // 1×m
}

// diversityGain builds Δ_R, the L×m personalized diversity gain matrix
// (Eq. 6): each row i is θ̂ ⊙ d_R(R(i)). The constant m/2 rescaling is an
// input-conditioning detail: marginal-diversity entries shrink as 1/m
// (coverage mass is spread over m topics), and without the rescaling the
// fusion MLP sees Δ an order of magnitude below H_R and underuses it early
// in training. It does not change Eq. (6) up to the head's first weight
// layer.
func (m *Model) diversityGain(t *nn.Tape, inst *rerank.Instance, theta *nn.Node) *nn.Node {
	d := mat.New(inst.L(), inst.M) // L×m constant
	m.divFn.Marginal(d.Data, inst.Cover, inst.M)
	thetaRows := make([]*nn.Node, inst.L())
	for i := range thetaRows {
		thetaRows[i] = theta
	}
	gain := t.Mul(t.ConcatRows(thetaRows...), t.Constant(d))
	return t.Scale(gain, float64(m.Cfg.Topics)/2)
}

// Loss implements rerank.ListwiseModel: the BCE of the logits against the
// click labels (Eq. 11).
func (m *Model) Loss(t *nn.Tape, inst *rerank.Instance, train bool) *nn.Node {
	return t.SigmoidBCE(m.logits(t, inst, train), inst.Labels)
}

// logits produces the pre-sigmoid φ_R.
func (m *Model) logits(t *nn.Tape, inst *rerank.Instance, train bool) *nn.Node {
	x := t.Constant(inst.ListFeatures())
	h := m.relevance(t, x)
	z := h
	if m.Cfg.UseDiversity {
		theta := m.preference(t, inst)
		z = t.ConcatCols(h, m.diversityGain(t, inst, theta))
	}
	if m.Cfg.Output == Deterministic {
		return m.headDet.Forward(t, z)
	}
	mu := m.headMu.Forward(t, z)
	sigma := t.Softplus(m.headSigma.Forward(t, z))
	if train {
		// Reparameterization trick (Eq. 9): φ = μ + ξ·Σ, ξ ~ N(0,1).
		// Under the parallel trainer ξ was pre-drawn by PrepareInstance on
		// the trainer goroutine; drawing here is the single-threaded
		// fallback (direct logits calls outside TrainListwise).
		xi := m.preNoise[inst]
		if xi == nil || xi.Rows != inst.L() {
			xi = mat.New(inst.L(), 1)
			for i := range xi.Data {
				xi.Data[i] = m.noise.NormFloat64()
			}
		}
		return t.Add(mu, t.Mul(t.Constant(xi), sigma))
	}
	// UCB inference (Eq. 10): φ = μ + Σ.
	return t.Add(mu, sigma)
}

// PrepareInstance is the trainer's batch-preparer hook: it draws the instance's
// reparameterization noise ξ from the model's RNG ahead of the concurrent
// forward passes. The trainer calls it sequentially in batch order, so the
// noise stream is consumed in a deterministic order no matter how many
// workers later evaluate the batch, and Loss stays read-only.
func (m *Model) PrepareInstance(inst *rerank.Instance) {
	if m.Cfg.Output != Probabilistic {
		return
	}
	if m.preNoise == nil {
		m.preNoise = make(map[*rerank.Instance]*mat.Matrix)
	}
	xi := m.preNoise[inst]
	if xi == nil || xi.Rows != inst.L() {
		xi = mat.New(inst.L(), 1)
		m.preNoise[inst] = xi
	}
	for i := range xi.Data {
		xi.Data[i] = m.noise.NormFloat64()
	}
}

// Fit implements rerank.Trainable.
func (m *Model) Fit(train []*rerank.Instance) error {
	_, err := rerank.TrainListwise(m, train, m.TrainCfg)
	return err
}

// Scores implements rerank.Reranker: the estimated utility φ_R (probability
// scale; for RAPID-pro this is the sigmoid of the UCB, which preserves the
// UCB ordering). It is Score without a context.
func (m *Model) Scores(inst *rerank.Instance) []float64 {
	scores, _ := m.Score(context.Background(), inst) // a background context never errs
	return scores
}

// Preference exposes the learned θ̂ for an instance — used by the case
// study (Figure 5) and the personalization tests.
func (m *Model) Preference(inst *rerank.Instance) []float64 {
	if !m.Cfg.UseDiversity {
		return make([]float64, m.Cfg.Topics)
	}
	st, _ := m.EncodeUserState(context.Background(), inst)
	return st.theta
}
