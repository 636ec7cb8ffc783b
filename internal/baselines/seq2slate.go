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
// the stepwise pointer cross-entropy. Inference decodes greedily.
type Seq2Slate struct {
	Hidden int
	Epochs int
	LR     float64
	Seed   int64

	ps      *nn.ParamSet
	encoder *nn.LSTM
	decoder *nn.LSTMCell
	w1, w2  *nn.Param // additive attention projections
	vAttn   *nn.Param // attention score vector
	once    sync.Once // builds the parameters from the first instance seen
}

// NewSeq2Slate returns a Seq2Slate with hidden width qh.
func NewSeq2Slate(qh int, seed int64) *Seq2Slate {
	return &Seq2Slate{Hidden: qh, Epochs: 8, LR: 0.005, Seed: seed}
}

// Name implements rerank.Reranker.
func (m *Seq2Slate) Name() string { return "Seq2Slate" }

func (m *Seq2Slate) build(featDim int) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	h := m.Hidden
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

// decode runs greedy pointer decoding, returning the selection order.
func (m *Seq2Slate) decode(inst *rerank.Instance) []int {
	t := nn.NewTape()
	enc := m.encoder.Forward(t, t.Constant(inst.ListFeatures()))
	l := inst.L()
	h, c := m.decoder.InitState(t)
	input := t.Constant(mat.New(1, m.Hidden))
	selected := make([]bool, l)
	order := make([]int, 0, l)
	for len(order) < l {
		h, c = m.decoder.Step(t, input, h, c)
		scores := m.pointerScores(t, enc, h, selected)
		best, bestV := -1, math.Inf(-1)
		for i, s := range selected {
			if !s && scores.Value.Data[i] > bestV {
				best, bestV = i, scores.Value.Data[i]
			}
		}
		selected[best] = true
		order = append(order, best)
		input = t.SliceRows(enc, best, best+1)
	}
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

// Fit implements rerank.Trainable with the stepwise pointer cross-entropy.
func (m *Seq2Slate) Fit(train []*rerank.Instance) error {
	if len(train) == 0 {
		return nil
	}
	m.once.Do(func() { m.build(train[0].FeatureDim()) })
	opt := nn.NewAdam(m.LR)
	rng := rand.New(rand.NewSource(m.Seed + 1))
	for e := 0; e < m.Epochs; e++ {
		for _, pi := range rng.Perm(len(train)) {
			inst := train[pi]
			target := targetOrder(inst)
			t := nn.NewTape()
			enc := m.encoder.Forward(t, t.Constant(inst.ListFeatures()))
			h, c := m.decoder.InitState(t)
			input := t.Constant(mat.New(1, m.Hidden))
			selected := make([]bool, inst.L())
			var loss *nn.Node
			// Teacher forcing along the target permutation; steps beyond
			// the clicked prefix carry little signal, so training stops at
			// the last click + 1 (or a minimum of 5 steps).
			steps := clickedCount(inst) + 1
			if steps < 5 {
				steps = 5
			}
			if steps > inst.L() {
				steps = inst.L()
			}
			for s := 0; s < steps; s++ {
				h, c = m.decoder.Step(t, input, h, c)
				scores := m.pointerScores(t, enc, h, selected)
				stepLoss := t.SoftmaxCrossEntropy(scores, target[s])
				if loss == nil {
					loss = stepLoss
				} else {
					loss = t.Add(loss, stepLoss)
				}
				selected[target[s]] = true
				input = t.SliceRows(enc, target[s], target[s]+1)
			}
			t.Backward(t.Scale(loss, 1/float64(steps)))
			m.ps.ClipGradNorm(5)
			opt.Step(m.ps.All())
		}
	}
	return nil
}

func clickedCount(inst *rerank.Instance) int {
	n := 0
	for _, y := range inst.Labels {
		if y > 0.5 {
			n++
		}
	}
	return n
}

// Scores implements rerank.Reranker via greedy decoding.
func (m *Seq2Slate) Scores(inst *rerank.Instance) []float64 {
	m.once.Do(func() { m.build(inst.FeatureDim()) })
	return diversify.GreedyScores(m.decode(inst), inst.L())
}
