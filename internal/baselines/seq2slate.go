package baselines

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/diversify"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// Seq2Slate is a pointer-network re-ranker in the spirit of Bello et al.'s
// Seq2Slate (cited in the paper's introduction as the RNN slate-optimization
// line of work): an LSTM encoder reads the initial list, an LSTM decoder
// emits the output slate one position at a time, and at each step an
// additive-attention pointer distributes probability over the not-yet-
// selected items.
//
// Training uses the supervised variant: the target permutation places
// clicked items first (ties broken by the initial order) and the loss is
// the stepwise pointer cross-entropy, trained by rerank.TrainListwise one
// instance per step. Inference decodes greedily.
type Seq2Slate struct {
	// TrainCfg is the schedule Fit trains with: 8 epochs of Adam at 0.005,
	// one instance per step, the gradient clipped to norm 5, shuffled by
	// the model's seed + 1.
	TrainCfg rerank.TrainConfig

	hidden  int
	seed    int64 // seeds the build
	ps      *nn.ParamSet
	encoder *nn.LSTM
	decoder *nn.LSTMCell
	w1, w2  *nn.Param // additive attention projections
	vAttn   *nn.Param // attention score vector
	once    sync.Once // builds the parameters from the first instance seen
}

// NewSeq2Slate returns a Seq2Slate with hidden width qh.
func NewSeq2Slate(qh int, seed int64) *Seq2Slate {
	return &Seq2Slate{
		TrainCfg: rerank.TrainConfig{Epochs: 8, LR: 0.005, BatchSize: 1, ClipNorm: 5, Seed: seed + 1},
		hidden:   qh,
		seed:     seed,
	}
}

// Name implements rerank.Reranker.
func (m *Seq2Slate) Name() string { return "Seq2Slate" }

func (m *Seq2Slate) build(featDim int) {
	rng := rand.New(rand.NewSource(m.seed))
	m.ps = nn.NewParamSet()
	h := m.hidden
	m.encoder = nn.NewLSTM(m.ps, "s2s.enc", featDim, h, rng)
	// Decoder input is the encoded representation of the last picked item.
	m.decoder = nn.NewLSTMCell(m.ps, "s2s.dec", h, h, rng)
	m.w1 = m.ps.New("s2s.W1", mat.XavierUniform(h, h, rng))
	m.w2 = m.ps.New("s2s.W2", mat.XavierUniform(h, h, rng))
	m.vAttn = m.ps.New("s2s.v", mat.XavierUniform(h, 1, rng))
}

// pointerScores computes the 1×L additive-attention scores of decoder state
// h over the encoded items enc (L×h), with selected positions masked out.
func (m *Seq2Slate) pointerScores(t *nn.Tape, enc, h *nn.Node, selected []bool) *nn.Node {
	l := enc.Value.Rows
	proj := t.MatMul(enc, t.Use(m.w1)) // L×h
	dec := t.MatMul(h, t.Use(m.w2))    // 1×h
	decRows := make([]*nn.Node, l)
	for i := range decRows {
		decRows[i] = dec
	}
	combined := t.Tanh(t.Add(proj, t.ConcatRows(decRows...)))
	scores := t.Transpose(t.MatMul(combined, t.Use(m.vAttn))) // 1×L
	mask := mat.New(1, l)
	for i, s := range selected {
		if s {
			mask.Data[i] = -1e9
		}
	}
	return t.Add(scores, t.Constant(mask))
}

// tapes holds the inference tapes of Seq2Slate and PD-GAN between calls:
// a tape keeps its node arena and buffers across Reset.
var tapes = sync.Pool{New: func() any { return nn.NewTape() }}

// unroll runs the pointer decoder over the instance for steps steps on t.
// pick chooses each step's item from the step's pointer scores, the items
// selected so far masked out; the decoder's next input is that item's
// encoding.
func (m *Seq2Slate) unroll(t *nn.Tape, inst *rerank.Instance, steps int, pick func(s int, scores *nn.Node, selected []bool) int) {
	enc := m.encoder.Forward(t, t.Constant(inst.ListFeatures()))
	h, c := m.decoder.InitState(t)
	input := t.Constant(mat.New(1, m.hidden))
	selected := make([]bool, inst.L())
	for s := 0; s < steps; s++ {
		h, c = m.decoder.Step(t, input, h, c)
		i := pick(s, m.pointerScores(t, enc, h, selected), selected)
		selected[i] = true
		input = t.SliceRows(enc, i, i+1)
	}
}

// decode runs greedy pointer decoding, returning the selection order.
func (m *Seq2Slate) decode(inst *rerank.Instance) []int {
	t := tapes.Get().(*nn.Tape)
	order := make([]int, 0, inst.L())
	m.unroll(t, inst, inst.L(), func(_ int, scores *nn.Node, selected []bool) int {
		best, bestV := -1, math.Inf(-1)
		for i, s := range selected {
			if !s && scores.Value.Data[i] > bestV {
				best, bestV = i, scores.Value.Data[i]
			}
		}
		order = append(order, best)
		return best
	})
	t.Reset()
	tapes.Put(t)
	return order
}

// targetOrder places clicked items first, preserving the initial order
// within each label group — the supervised pointer target.
func targetOrder(inst *rerank.Instance) []int {
	idx := make([]int, inst.L())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return inst.Labels[idx[a]] > inst.Labels[idx[b]] })
	return idx
}

// Params implements rerank.ListwiseModel; it is nil until the model is
// built.
func (m *Seq2Slate) Params() *nn.ParamSet { return m.ps }

// Loss implements rerank.ListwiseModel: the pointer cross-entropy of the
// decoder teacher-forced along the target permutation, averaged over its
// steps. Steps beyond the clicked prefix carry little signal, so the loss
// stops at the last click + 1 (or a minimum of 5 steps).
func (m *Seq2Slate) Loss(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
	target := targetOrder(inst)
	steps := min(max(len(clickedSet(inst))+1, 5), inst.L())
	var loss *nn.Node
	m.unroll(t, inst, steps, func(s int, scores *nn.Node, _ []bool) int {
		if stepLoss := t.SoftmaxCrossEntropy(scores, target[s]); loss == nil {
			loss = stepLoss
		} else {
			loss = t.Add(loss, stepLoss)
		}
		return target[s]
	})
	return t.Scale(loss, 1/float64(steps))
}

// Fit implements rerank.Trainable with rerank.TrainListwise under TrainCfg.
func (m *Seq2Slate) Fit(train []*rerank.Instance) error {
	if len(train) == 0 {
		return nil
	}
	m.once.Do(func() { m.build(train[0].FeatureDim()) })
	_, err := rerank.TrainListwise(m, train, m.TrainCfg)
	return err
}

// Scores implements rerank.Reranker via greedy decoding.
func (m *Seq2Slate) Scores(inst *rerank.Instance) []float64 {
	m.once.Do(func() { m.build(inst.FeatureDim()) })
	return diversify.GreedyScores(m.decode(inst), inst.L())
}
