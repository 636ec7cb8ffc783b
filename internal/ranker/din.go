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

// Fit trains on the dataset's RankerTrain split, one example per step:
// forward, the BCE gradient back through the head and the attention unit
// (backward), the global norm clip and an Adam step.
func (m *DIN) Fit(d *dataset.Dataset) error {
	m.build(d)
	opt := nn.NewAdam(m.LR)
	rng := rand.New(rand.NewSource(m.Seed + 1))
	inter := d.RankerTrain
	params := m.ps.All()
	p, b := new(pass), m.newBack()
	for e := 0; e < m.Epochs; e++ {
		for _, i := range shuffled(len(inter), rng) {
			ex := inter[i]
			m.forward(p, d, ex.User, ex.Item)
			m.backward(p, b, ex.Label)
			m.ps.ClipGradNorm(5)
			opt.Step(params)
		}
	}
	return nil
}

// Score implements Ranker: forward and a sigmoid, on a pass from passPool,
// so concurrent callers share nothing and a score allocates nothing.
func (m *DIN) Score(d *dataset.Dataset, user, item int) float64 {
	if !m.built {
		panic("ranker: DIN.Score before Fit")
	}
	p := passPool.Get().(*pass)
	score := mat.Sigmoid(m.forward(p, d, user, item))
	passPool.Put(p)
	return score
}

// pass is one forward's working memory: the history rows, the attention
// unit's input, the head's input and each layer's pre-activation and
// output, all carved from buf. backward reads what forward keeps here.
type pass struct {
	buf   []float64
	h     int       // history rows attended over
	hm    []float64 // h×qv history features
	attIn []float64 // h×3qv rows [x_h | x_v | x_h⊙x_v]
	in    []float64 // the head's input [x_u | x_v | pooled]
	att   [2]layer  // h rows each
	head  [3]layer  // one row each
}

// layer is one dense layer's pre-activation z and output y, row-major. y
// is z for a Linear layer. DIN's hidden layers are ReLU and its output
// layers Linear (build); forward and backward know no other activation.
type layer struct{ z, y []float64 }

var passPool = sync.Pool{New: func() any { return new(pass) }}

// carve lays p out for inputs of qu and qv features and h history rows,
// growing buf when it is too small.
func (p *pass) carve(m *DIN, qu, qv, h int) {
	need := 4*h*qv + qu + 2*qv
	for _, l := range m.att.Layers {
		need += 2 * h * l.W.Value.Cols
	}
	for _, l := range m.head.Layers {
		need += 2 * l.W.Value.Cols
	}
	if cap(p.buf) < need {
		p.buf = make([]float64, need)
	}
	rest := p.buf[:need]
	p.h, p.hm, p.attIn, p.in = h, take(&rest, h*qv), take(&rest, 3*h*qv), take(&rest, qu+2*qv)
	carveLayers(p.att[:], m.att, h, &rest)
	carveLayers(p.head[:], m.head, 1, &rest)
}

// take cuts the first n floats off *rest.
func take(rest *[]float64, n int) []float64 {
	s := (*rest)[:n:n]
	*rest = (*rest)[n:]
	return s
}

func carveLayers(ls []layer, mlp *nn.MLP, rows int, rest *[]float64) {
	for i, l := range mlp.Layers {
		n := rows * l.W.Value.Cols
		ls[i].z, ls[i].y = take(rest, n), take(rest, n)
		if l.Act == nn.Linear {
			ls[i].y = ls[i].z
		}
	}
}

// forward runs DIN on one (user, item) pair without a tape, keeping its
// intermediates in p, and returns the logit. It performs the training
// graph's operations in the graph's order, so every float has the bits
// the graph gives it (din_test.go keeps the graph as the oracle). The
// attention unit scores the rows [x_h | x_v | x_h⊙x_v], and pooled =
// softmax(scoresᵀ)·history joins x_u and x_v as the head's input.
func (m *DIN) forward(p *pass, d *dataset.Dataset, user, item int) float64 {
	xu, xv := d.UserFeatures(user), d.ItemFeatures(item)
	hist := d.Users[user].History
	if len(hist) > m.HistoryCap {
		hist = hist[len(hist)-m.HistoryCap:]
	}
	qu, qv := len(xu), len(xv)
	p.carve(m, qu, qv, len(hist))
	copy(p.in, xu)
	copy(p.in[qu:], xv)
	pooled := p.in[qu+qv:]
	clear(pooled)
	if len(hist) > 0 {
		for i, it := range hist {
			xh := p.hm[i*qv:][:qv]
			copy(xh, d.ItemFeatures(it))
			row := p.attIn[3*i*qv:][:3*qv]
			copy(row, xh)
			copy(row[qv:], xv)
			for j, x := range xh {
				row[2*qv+j] = x * xv[j]
			}
		}
		w := dense(m.att, p.att[:], p.attIn, len(hist))
		mat.SoftmaxInto(w, w)
		mat.AddVecMat(pooled, w, p.hm)
	}
	return dense(m.head, p.head[:], p.in, 1)[0]
}

// dense applies mlp to rows inputs held row-major in x, as mlp.Forward
// does on a tape, writing layer i's pre-activation to ls[i].z and its
// output to ls[i].y; it returns the last output. Each row starts at zero,
// takes x_r·W by mat.AddVecMat (MatMulInto's per-row kernel) and the bias
// last (addRowBroadcast). nn.DenseInto starts from the bias instead, which
// rounds differently.
func dense(mlp *nn.MLP, ls []layer, x []float64, rows int) []float64 {
	for i, l := range mlp.Layers {
		in, out := l.W.Value.Rows, l.W.Value.Cols
		z := ls[i].z
		for r := 0; r < rows; r++ {
			o := z[r*out:][:out]
			clear(o)
			mat.AddVecMat(o, x[r*in:][:in], l.W.Value.Data)
			for j, bias := range l.B.Value.Data {
				o[j] += bias
			}
		}
		if l.Act == nn.ReLU {
			mat.ReLUInto(ls[i].y, z)
		}
		x = ls[i].y
	}
	return x
}

// back is backward's working memory, one per Fit: per layer, the
// gradients at its pre-activation and at its input, each sized for the
// most rows the layer sees; the attention weights' and scores'
// gradients; and matrix headers the GEMM kernels read through.
type back struct {
	att, head  []layerGrad
	dw, dscore []float64
	dlogit     [1]float64
	x, g, dx   mat.Matrix
}

type layerGrad struct{ dz, dx []float64 }

func (m *DIN) newBack() *back {
	grads := func(mlp *nn.MLP, rows int) []layerGrad {
		gs := make([]layerGrad, len(mlp.Layers))
		for i, l := range mlp.Layers {
			gs[i] = layerGrad{make([]float64, rows*l.W.Value.Cols), make([]float64, rows*l.W.Value.Rows)}
		}
		return gs
	}
	h := m.HistoryCap
	return &back{att: grads(m.att, h), head: grads(m.head, 1), dw: make([]float64, h), dscore: make([]float64, h)}
}

// view points m at data as a rows×cols matrix.
func view(m *mat.Matrix, rows, cols int, data []float64) *mat.Matrix {
	*m = mat.Matrix{Rows: rows, Cols: cols, Data: data[:rows*cols]}
	return m
}

// backward accumulates into the parameters' Grad the gradient of the BCE
// loss of the forward kept in p against label. It takes the graph's
// backward steps in the graph's reverse order, with the kernels the tape's
// backstep calls: the loss, the head, the pooled slice of the head's
// input, pooled = w·history (AddMatMulABT), the softmax row rule, the
// transpose, and the attention unit. The features are constants: no
// gradient flows into them. Each intermediate gradient is accumulated into
// a zeroed buffer, as the tape's are, so no −0 reaches a later step; for
// that reason the tape's copy of a gradient into another zeroed buffer (an
// add, a transpose of one column) changes no bit, and backward reuses the
// gradient in place of the copy.
func (m *DIN) backward(p *pass, b *back, label float64) {
	logit := p.head[len(p.head)-1].z[0]
	b.dlogit[0] = 0
	b.dlogit[0] += mat.Sigmoid(logit) - label // mean BCE over one target
	din := b.denseBack(m.head, p.head[:], b.head, p.in, 1, b.dlogit[:], p.h > 0)
	if p.h == 0 {
		return // pooled is a constant zero: the attention unit took no part
	}
	qv := len(p.hm) / p.h
	dpooled := din[len(din)-qv:]
	dw := b.dw[:p.h]
	clear(dw)
	mat.AddMatMulABT(view(&b.dx, 1, p.h, dw), view(&b.g, 1, qv, dpooled), view(&b.x, p.h, qv, p.hm))
	// Softmax: dscore_j = w_j (dw_j − Σ_k dw_k w_k).
	w := p.att[len(p.att)-1].y
	var dot float64
	for k, y := range w {
		dot += dw[k] * y
	}
	dscore := b.dscore[:p.h]
	clear(dscore)
	for j, y := range w {
		dscore[j] += y * (dw[j] - dot)
	}
	b.denseBack(m.att, p.att[:], b.att, p.attIn, p.h, dscore, false)
}

// denseBack is dense's backward step, last layer first, given gy, the
// gradient at the last layer's output: ReLU's gradient into a zeroed dz
// (mat.ReLUGradInto), the bias's row by row (addRowBroadcast), W's
// (AddMatMulATB) and the layer input's (AddMatMulABT into a zeroed dx),
// which is gy for the layer below. It accumulates into the parameters'
// Grad and returns the gradient at x when withInput is set; the tape
// computes none for a constant input.
func (b *back) denseBack(mlp *nn.MLP, ls []layer, gs []layerGrad, x []float64, rows int, gy []float64, withInput bool) []float64 {
	for i := len(mlp.Layers) - 1; i >= 0; i-- {
		l := mlp.Layers[i]
		in, out := l.W.Value.Rows, l.W.Value.Cols
		dz := gy
		if l.Act == nn.ReLU {
			dz = gs[i].dz[:rows*out]
			clear(dz)
			mat.ReLUGradInto(dz, gy, ls[i].z)
		}
		bias := l.B.Grad.Data
		for r := 0; r < rows; r++ {
			for j, g := range dz[r*out:][:out] {
				bias[j] += g
			}
		}
		xi := x
		if i > 0 {
			xi = ls[i-1].y
		}
		view(&b.g, rows, out, dz)
		if i > 0 || withInput {
			gy = gs[i].dx[:rows*in]
			clear(gy)
			mat.AddMatMulABT(view(&b.dx, rows, in, gy), &b.g, l.W.Value)
		}
		mat.AddMatMulATB(l.W.Grad, view(&b.x, rows, in, xi), &b.g)
	}
	if !withInput {
		return nil
	}
	return gy
}
