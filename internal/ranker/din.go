package ranker

import (
	"math/rand"
	"sync"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

// DIN is a compact Deep Interest Network (Zhou et al., KDD'18): the user's
// behavior history is pooled by an attention unit conditioned on the
// candidate item, and the pooled interest vector joins the user and item
// features in an MLP trained pointwise with BCE. It is the paper's default
// initial ranker.
type DIN struct {
	Hidden     int
	HistoryCap int // most recent history items attended over
	Epochs     int
	LR         float64
	Seed       int64

	ps    *nn.ParamSet
	att   *nn.MLP // attention unit over [x_h, x_v, x_h⊙x_v]
	head  *nn.MLP // final scorer over [x_u, x_v, pooled]
	built bool
}

// NewDIN returns a DIN with sensible small-scale defaults.
func NewDIN(seed int64) *DIN {
	return &DIN{Hidden: 16, HistoryCap: 10, Epochs: 3, LR: 0.01, Seed: seed}
}

// Name implements Ranker.
func (m *DIN) Name() string { return "DIN" }

func (m *DIN) build(d *dataset.Dataset) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.ps = nn.NewParamSet()
	qv := d.Cfg.ItemDim
	qu := d.Cfg.UserDim
	m.att = nn.NewMLP(m.ps, "din.att", []int{3 * qv, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	m.head = nn.NewMLP(m.ps, "din.head", []int{qu + 2*qv, m.Hidden, m.Hidden / 2, 1}, nn.ReLU, nn.Linear, rng)
	m.built = true
}

// forward scores one (user, item) pair on the tape, returning a 1×1 logit.
func (m *DIN) forward(t *nn.Tape, d *dataset.Dataset, user, item int) *nn.Node {
	xu := t.Constant(mat.RowVector(d.UserFeatures(user)))
	xv := t.Constant(mat.RowVector(d.ItemFeatures(item)))
	hist := d.Users[user].History
	if len(hist) > m.HistoryCap {
		hist = hist[len(hist)-m.HistoryCap:]
	}
	var pooled *nn.Node
	if len(hist) == 0 {
		pooled = t.Constant(mat.New(1, d.Cfg.ItemDim))
	} else {
		rows := make([]*nn.Node, len(hist))
		for i, h := range hist {
			rows[i] = t.Constant(mat.RowVector(d.ItemFeatures(h)))
		}
		histMat := t.ConcatRows(rows...) // H×qv
		// Attention unit: weight_i = MLP([x_h, x_v, x_h⊙x_v]).
		vRep := t.ConcatRows(repeat(t, xv, len(hist))...)
		attIn := t.ConcatCols(histMat, vRep, t.Mul(histMat, vRep))
		w := t.SoftmaxRows(t.Transpose(m.att.Forward(t, attIn))) // 1×H
		pooled = t.MatMul(w, histMat)                            // 1×qv
	}
	return m.head.Forward(t, t.ConcatCols(xu, xv, pooled))
}

// tapeNodes is the node count of one forward and its loss at a full
// history: 34 + HistoryCap, 44 at the default cap.
func (m *DIN) tapeNodes() int { return 34 + m.HistoryCap }

func repeat(t *nn.Tape, row *nn.Node, n int) []*nn.Node {
	out := make([]*nn.Node, n)
	for i := range out {
		out[i] = row
	}
	return out
}

// Fit trains on the dataset's RankerTrain split.
func (m *DIN) Fit(d *dataset.Dataset) error {
	m.build(d)
	opt := nn.NewAdam(m.LR)
	rng := rand.New(rand.NewSource(m.Seed + 1))
	inter := d.RankerTrain
	t := nn.NewTapeCap(m.tapeNodes())
	for e := 0; e < m.Epochs; e++ {
		for _, i := range shuffled(len(inter), rng) {
			ex := inter[i]
			t.Reset()
			logit := m.forward(t, d, ex.User, ex.Item)
			loss := t.SigmoidBCE(logit, []float64{ex.Label})
			t.Backward(loss)
			m.ps.ClipGradNorm(5)
			opt.Step(m.ps.All())
		}
	}
	return nil
}

// Score implements Ranker. It replays forward's arithmetic without a tape:
// the same operations in the same order on one pooled scratch buffer, so
// each score has forward's bits, and concurrent callers share nothing.
func (m *DIN) Score(d *dataset.Dataset, user, item int) float64 {
	if !m.built {
		panic("ranker: DIN.Score before Fit")
	}
	xu, xv := d.UserFeatures(user), d.ItemFeatures(item)
	hist := d.Users[user].History
	if len(hist) > m.HistoryCap {
		hist = hist[len(hist)-m.HistoryCap:]
	}
	qu, qv, h := len(xu), len(xv), len(hist)
	// in is the head's input [x_u | x_v | pooled], hm the history rows;
	// the layers write into a and b by turns.
	width := max(widest(m.att)*h, widest(m.head))
	s := scratchPool.Get().(*scratch)
	if need := h*qv + qu + 2*qv + 2*width; cap(s.buf) < need {
		s.buf = make([]float64, need)
	}
	hm, rest := s.buf[:h*qv], s.buf[h*qv:]
	in, a, b := rest[:qu+2*qv], rest[qu+2*qv:][:width], rest[qu+2*qv+width:][:width]
	copy(in, xu)
	copy(in[qu:], xv)
	pooled := in[qu+qv:]
	clear(pooled)
	if h > 0 {
		// The attention unit over rows [x_h | x_v | x_h⊙x_v], built in b,
		// then pooled = softmax(weightsᵀ)·history.
		for i, it := range hist {
			xh := hm[i*qv:][:qv]
			copy(xh, d.ItemFeatures(it))
			row := b[i*3*qv:][:3*qv]
			copy(row, xh)
			copy(row[qv:], xv)
			for j, x := range xh {
				row[2*qv+j] = x * xv[j]
			}
		}
		w := denseRows(m.att, b, a, b, h)
		mat.SoftmaxInto(w, w)
		mat.AddVecMat(pooled, w, hm)
	}
	score := mat.Sigmoid(denseRows(m.head, in, a, b, 1)[0])
	scratchPool.Put(s)
	return score
}

// scratch is one Score call's working memory; scratchPool keeps it between
// calls.
type scratch struct{ buf []float64 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// widest is the widest input or output of any layer of mlp.
func widest(mlp *nn.MLP) int {
	w := 0
	for _, l := range mlp.Layers {
		w = max(w, l.W.Value.Rows, l.W.Value.Cols)
	}
	return w
}

// denseRows applies mlp to rows inputs held row-major in x, as
// mlp.Forward does on a tape: each output row starts at zero and takes
// x_r·W by mat.AddVecMat (MatMulInto's per-row kernel), the bias is added
// last (addRowBroadcast), and the activation is applied to the whole
// output. nn.DenseInto starts from the bias instead, which rounds
// differently. Layer i writes into a when i is even and into b when it is
// odd, so x may share memory with b but not with a; each must hold rows
// times the widest layer. It returns the last layer's output.
func denseRows(mlp *nn.MLP, x, a, b []float64, rows int) []float64 {
	for _, l := range mlp.Layers {
		in, out := l.W.Value.Rows, l.W.Value.Cols
		y := a[:rows*out]
		for r := 0; r < rows; r++ {
			o := y[r*out : (r+1)*out]
			clear(o)
			mat.AddVecMat(o, x[r*in:(r+1)*in], l.W.Value.Data)
			for j, bias := range l.B.Value.Data {
				o[j] += bias
			}
		}
		l.Act.InPlace(y)
		x, a, b = y, b, a
	}
	return x
}
