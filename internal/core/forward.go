package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// This file is the inference forward: the arithmetic of logits(train=false)
// with no autodiff tape under it. It records no node, takes every scratch
// buffer from one arena, and reads weights in place from Param.Value, so a
// model that is trained further, reloaded or hot-swapped needs no
// invalidation. Every inference entry point (Score, ScoreBatch,
// ScoreBatchStates, EncodeUserState, Scores, Preference) runs through it;
// the tape is for training only.
//
// Two things make it cheaper than the same arithmetic on a tape. Every list
// row is [x_u | x_v | τ | s] and every behavior-sequence row [x_u | x_v], so
// the user block's share of a recurrent cell's gate projection is computed
// once per cell per request (nn.LSTMCell.InferBase) and each step adds only
// the rows of its item and of the previous hidden state. And the instance's
// fields are read where they lie: ListFeatures and TopicSeqFeatures are
// never materialized.
//
// Numerics contract. The summation order is fixed and documented where each
// kernel is defined (nn.LSTMCell.InferStep, nn.DenseInto, mat.AddVecMat):
//
//	gates = ((b + x_u·W_u) + x_v·W_v + τ·W_τ + s·w_s) + h·W_h   k ascending
//	dense = (b + x·W)                                           k ascending
//
// The tape sums [x,h]·W from zero and adds the bias last, so inference and
// training agree to rounding, not bitwise: TestForwardMatchesLogits pins
// |Δlogit| ≤ 1e-12 for every variant. Inference agrees with inference
// bitwise — single, batched, with or without a supplied state — because each
// instance is scored alone, by the same code, whatever it is batched with.

// arena is the scratch of one inference call: a flat float64 buffer carved
// front to back. The rules that keep it safe:
//
//   - reset sizes the buffer for a whole instance before anything is carved
//     from it. Growing in mid-instance would orphan the slices already
//     handed out, so take never grows; a need that was under-counted fails
//     loudly on the slice bound.
//   - take returns unspecified contents; callers clear what they accumulate
//     into.
//   - nothing carved from an arena outlives the call that borrowed it.
//     Scores and θ̂ are written to fresh heap slices: responses outlive the
//     call and the engine's state cache keeps θ̂ for hours.
type arena struct {
	buf []float64
	off int
}

func (a *arena) reset(need int) {
	if cap(a.buf) < need {
		a.buf = make([]float64, need)
	}
	a.off = 0
}

func (a *arena) take(n int) []float64 {
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// borrow takes an arena from the model's pool for the duration of one call.
func (m *Model) borrow() *arena {
	if a, ok := m.arenas.Get().(*arena); ok {
		return a
	}
	return new(arena)
}

func (m *Model) headIn() int {
	if m.Cfg.UseDiversity {
		return 2*m.Cfg.Hidden + m.Cfg.Topics
	}
	return 2 * m.Cfg.Hidden
}

// forward scores one instance on a's scratch and returns its pre-sigmoid
// logits φ_R as a fresh slice, with the user state that produced them: st
// when it fits this model, otherwise one encoded here (nil for a
// diversity-free model).
func (m *Model) forward(ctx context.Context, a *arena, inst *rerank.Instance, st *UserState) ([]float64, *UserState, error) {
	m.checkGeometry(inst)
	l, relDim, headIn := inst.L(), 2*m.Cfg.Hidden, m.headIn()
	a.reset(l*headIn + m.relevanceScratch(l) + m.preferenceScratch(l) + m.headScratch(l))

	// z is the fusion input [H_R | Δ_R], one row per listed item.
	z := a.take(l * headIn)
	if err := m.relevanceInto(ctx, a, inst, z, headIn); err != nil {
		return nil, nil, err
	}
	if !m.Cfg.UseDiversity {
		st = nil
	} else {
		if !st.validFor(m) {
			theta, err := m.encodeTheta(ctx, a, inst)
			if err != nil {
				return nil, nil, err
			}
			st = &UserState{theta: theta}
		}
		// Δ_R = s·(θ̂ ⊙ d_R), Eq. (6), in the tape's Mul-then-Scale order
		// (see diversityGain for the m/2 rescaling).
		topicsN := m.Cfg.Topics
		s := float64(topicsN) / 2
		d := a.take(l * topicsN)
		m.divFn.Marginal(d, inst.Cover, topicsN)
		for i := 0; i < l; i++ {
			row := z[i*headIn+relDim : (i+1)*headIn]
			for j := range row {
				row[j] = s * (st.theta[j] * d[i*topicsN+j])
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	logits := make([]float64, l)
	if m.Cfg.Output == Deterministic {
		mlpInto(a, logits, z, l, m.headDet)
		return logits, st, nil
	}
	// UCB inference (Eq. 10): φ = μ + Σ, Σ = softplus(head_σ).
	sigma := a.take(l)
	mlpInto(a, logits, z, l, m.headMu)
	mlpInto(a, sigma, z, l, m.headSigma)
	mat.SoftplusInto(sigma, sigma)
	for i, sg := range sigma {
		logits[i] += sg
	}
	return logits, st, nil
}

func (m *Model) headScratch(l int) int {
	if m.Cfg.Output == Deterministic {
		return mlpScratch(m.headDet, l)
	}
	return l + mlpScratch(m.headMu, l) + mlpScratch(m.headSigma, l)
}

// checkGeometry panics when an instance does not have the model's
// dimensions — a caller bug (the serving layer validates requests before it
// builds instances), and what the tape path's GEMM shape checks used to
// catch. The forward copies rows by the model's dimensions, so a mismatch
// must not get past here.
func (m *Model) checkGeometry(inst *rerank.Instance) {
	bad := len(inst.UserFeat) != m.Cfg.UserDim || inst.M != m.Cfg.Topics ||
		len(inst.InitScores) != inst.L() || len(inst.Cover) != inst.L() ||
		(m.Cfg.UseDiversity && len(inst.TopicSeqs) != m.Cfg.Topics)
	for _, tau := range inst.Cover {
		bad = bad || len(tau) != m.Cfg.Topics
	}
	if bad {
		panic(fmt.Sprintf("core: instance geometry (user %d, topics %d, %d items) does not fit model %+v",
			len(inst.UserFeat), inst.M, inst.L(), m.Cfg))
	}
}

// itemFeat resolves x_v, holding it to the model's item dimension.
func (m *Model) itemFeat(inst *rerank.Instance, id int) []float64 {
	f := inst.ItemFeat(id)
	if len(f) != m.Cfg.ItemDim {
		panic(fmt.Sprintf("core: item %d has %d feature dims, model wants %d", id, len(f), m.Cfg.ItemDim))
	}
	return f
}

// listRow writes position i's list features after the user block,
// [x_v | τ | s], into dst.
func (m *Model) listRow(dst []float64, inst *rerank.Instance, i int) {
	off := copy(dst, m.itemFeat(inst, inst.Items[i]))
	off += copy(dst[off:], inst.Cover[i])
	dst[off] = inst.InitScores[i]
}

// mlpInto runs rows inputs through an MLP, hidden layers on arena scratch,
// the last layer into dst.
func mlpInto(a *arena, dst, x []float64, rows int, mlp *nn.MLP) {
	last := len(mlp.Layers) - 1
	for _, layer := range mlp.Layers[:last] {
		h := a.take(rows * layer.W.Value.Cols)
		layer.Infer(h, x, rows)
		x = h
	}
	mlp.Layers[last].Infer(dst, x, rows)
}

func mlpScratch(mlp *nn.MLP, rows int) int {
	n := 0
	for _, layer := range mlp.Layers[:len(mlp.Layers)-1] {
		n += rows * layer.W.Value.Cols
	}
	return n
}

// relevanceInto writes H_R, the listwise relevance representation, into the
// first 2·hidden columns of z's rows (stride floats apart).
func (m *Model) relevanceInto(ctx context.Context, a *arena, inst *rerank.Instance, z []float64, stride int) error {
	if m.Cfg.Encoder == TransformerEncoder {
		return m.transformerInto(ctx, a, inst, z, stride)
	}
	hid, l := m.Cfg.Hidden, inst.L()
	rest := m.Cfg.ItemDim + m.Cfg.Topics + 1
	base, gates := a.take(4*hid), a.take(4*hid)
	xh, c := a.take(rest+hid), a.take(hid)
	h := xh[rest:]
	for dir, cell := range [2]*nn.LSTMCell{m.bilstm.Fwd, m.bilstm.Bwd} {
		cell.InferBase(base, inst.UserFeat)
		clear(h)
		clear(c)
		for step := 0; step < l; step++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			i := step
			if dir == 1 {
				i = l - 1 - step
			}
			m.listRow(xh, inst, i)
			cell.InferStep(gates, base, xh, c)
			copy(z[i*stride+dir*hid:], h) // row i of [fwd | bwd]
		}
	}
	return nil
}

func (m *Model) relevanceScratch(l int) int {
	hid, dim := m.Cfg.Hidden, 2*m.Cfg.Hidden
	feat := m.Cfg.UserDim + m.Cfg.ItemDim + m.Cfg.Topics + 1
	if m.Cfg.Encoder == TransformerEncoder {
		ff := m.trans.FF1.W.Value.Cols
		return l * (feat + 4*dim + 3*m.trans.Attn.Heads[0].Dim + 1 + ff)
	}
	return 10*hid + feat - m.Cfg.UserDim
}

// transformerInto is the RAPID-trans listwise encoder: projection →
// multi-head self-attention → residual + layer norm → feed-forward →
// residual + layer norm → output projection. Attention mixes the rows of one
// list, so the list's feature rows are laid out once; attention weights are
// formed a query row at a time, which keeps the scratch linear in the list
// length.
func (m *Model) transformerInto(ctx context.Context, a *arena, inst *rerank.Instance, z []float64, stride int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	l, dim, qu := inst.L(), 2*m.Cfg.Hidden, m.Cfg.UserDim
	feat := qu + m.Cfg.ItemDim + m.Cfg.Topics + 1
	blk := m.trans
	hd := blk.Attn.Heads[0].Dim

	x := a.take(l * feat)
	for i := 0; i < l; i++ {
		copy(x[i*feat:], inst.UserFeat)
		m.listRow(x[i*feat+qu:(i+1)*feat], inst, i)
	}
	h0 := a.take(l * dim)
	m.transProj.Infer(h0, x, l)

	q, k, v := a.take(l*hd), a.take(l*hd), a.take(l*hd)
	p := a.take(l)         // one query row's attention weights
	cat := a.take(l * dim) // the heads' outputs side by side
	scale := 1 / math.Sqrt(float64(hd))
	for hi, head := range blk.Attn.Heads {
		nn.DenseInto(q, h0, l, head.Wq.Value, nil, nn.Linear)
		nn.DenseInto(k, h0, l, head.Wk.Value, nil, nn.Linear)
		nn.DenseInto(v, h0, l, head.Wv.Value, nil, nn.Linear)
		for i := 0; i < l; i++ {
			attendRow(cat[i*dim+hi*hd:][:hd], p, q[i*hd:(i+1)*hd], k, v, scale)
		}
	}
	att := a.take(l * dim)
	nn.DenseInto(att, cat, l, blk.Attn.Wo.Value, nil, nn.Linear)
	addNorm(att, h0, dim, blk.Norm1)

	ff := a.take(l * blk.FF1.W.Value.Cols)
	blk.FF1.Infer(ff, att, l)
	f := a.take(l * dim)
	blk.FF2.Infer(f, ff, l)
	addNorm(f, att, dim, blk.Norm2)

	for i := 0; i < l; i++ {
		m.transOut.Infer(z[i*stride:][:dim], f[i*dim:(i+1)*dim], 1)
	}
	return nil
}

// attendRow is one query row of scaled dot-product attention:
// dst = softmax(scale·q·Kᵀ)·V, where k and v hold len(p) rows of len(q)
// and len(dst) floats, and p is scratch for the weights.
func attendRow(dst, p, q, k, v []float64, scale float64) {
	for j := range p {
		p[j] = scale * mat.Dot(q, k[j*len(q):(j+1)*len(q)])
	}
	mat.SoftmaxInto(p, p)
	clear(dst)
	mat.AddVecMat(dst, p, v)
}

// addNorm is the transformer's residual step, x = LayerNorm(x + res), over
// dim-wide rows in place.
func addNorm(x, res []float64, dim int, ln *nn.LayerNorm) {
	for i, r := range res {
		x[i] += r
	}
	for off := 0; off < len(x); off += dim {
		row := x[off : off+dim]
		nn.LayerNormRow(row, row, row, ln.Gain.Value.Data, ln.Bias.Value.Data)
	}
}

// encodeTheta runs the user-preference prefix (Eqs. 2–3) — per-topic
// behavior summaries, self-attention across them, the preference MLP — and
// returns θ̂ as a fresh slice. It carves from a without resetting it: the
// caller has sized the arena to at least preferenceScratch.
func (m *Model) encodeTheta(ctx context.Context, a *arena, inst *rerank.Instance) ([]float64, error) {
	hid, topicsN := m.Cfg.Hidden, m.Cfg.Topics
	sums := a.take(topicsN * hid) // one summary row per topic
	clear(sums)                   // an empty sequence keeps the zero state
	switch m.Cfg.Agg {
	case LSTMAgg:
		cell := m.topicLSTM.Cell
		qv := m.Cfg.ItemDim
		base, gates := a.take(4*hid), a.take(4*hid)
		xh, c := a.take(qv+hid), a.take(hid)
		h := xh[qv:]
		cell.InferBase(base, inst.UserFeat) // shared by every topic's sequence
		for j := 0; j < topicsN; j++ {
			clear(h)
			clear(c)
			for _, item := range inst.RecentTopicSeq(j, m.Cfg.D) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				copy(xh, m.itemFeat(inst, item))
				cell.InferStep(gates, base, xh, c)
			}
			copy(sums[j*hid:(j+1)*hid], h)
		}
	case MeanAgg:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		emb := m.meanEmbed
		w := emb.W.Value
		base, e := a.take(hid), a.take(hid)
		copy(base, emb.B.Value.Data)
		mat.AddVecMat(base, inst.UserFeat, w.Data)
		for j := 0; j < topicsN; j++ {
			seq := inst.RecentTopicSeq(j, m.Cfg.D)
			if len(seq) == 0 {
				continue
			}
			sum := sums[j*hid : (j+1)*hid]
			for _, item := range seq {
				copy(e, base)
				mat.AddVecMat(e, m.itemFeat(inst, item), w.Data[m.Cfg.UserDim*hid:])
				emb.Act.InPlace(e)
				for k, v := range e {
					sum[k] += v
				}
			}
			inv := 1 / float64(len(seq))
			for k := range sum {
				sum[k] *= inv
			}
		}
	}
	// Eq. (2): parameter-free self-attention across the topic summaries.
	att, p := a.take(topicsN*hid), a.take(topicsN)
	scale := 1 / math.Sqrt(float64(hid))
	for j := 0; j < topicsN; j++ {
		attendRow(att[j*hid:(j+1)*hid], p, sums[j*hid:(j+1)*hid], sums, sums, scale)
	}
	// Eq. (3): the row-shared preference MLP, a_j ↦ θ̂_j.
	theta := make([]float64, topicsN)
	mlpInto(a, theta, att, topicsN, m.prefMLP)
	return theta, nil
}

// preferenceScratch is what the diversity estimator carves for an l-item
// list: encodeTheta's scratch plus the l×m marginal-diversity table d_R
// (l = 0 for EncodeUserState, which builds no Δ_R).
func (m *Model) preferenceScratch(l int) int {
	if !m.Cfg.UseDiversity {
		return 0
	}
	hid, topicsN := m.Cfg.Hidden, m.Cfg.Topics
	n := l*topicsN + 2*topicsN*hid + topicsN + mlpScratch(m.prefMLP, topicsN)
	if m.Cfg.Agg == LSTMAgg {
		return n + 10*hid + m.Cfg.ItemDim
	}
	return n + 2*hid
}
