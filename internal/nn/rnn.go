package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// LSTMCell is a standard long short-term memory cell (Hochreiter &
// Schmidhuber, 1997) with a single fused weight matrix over [x, h].
// Gate order in the fused projection is (input, forget, cell, output).
type LSTMCell struct {
	W      *Param // (in+hidden) × 4·hidden
	B      *Param // 1 × 4·hidden
	Hidden int
}

// NewLSTMCell builds a cell mapping `in`-dimensional inputs to a
// `hidden`-dimensional state. The forget-gate bias is initialized to 1,
// the usual trick to ease gradient flow early in training.
func NewLSTMCell(ps *ParamSet, prefix string, in, hidden int, rng *rand.Rand) *LSTMCell {
	b := mat.New(1, 4*hidden)
	for j := hidden; j < 2*hidden; j++ {
		b.Data[j] = 1
	}
	return &LSTMCell{
		W:      ps.New(prefix+".W", mat.XavierUniform(in+hidden, 4*hidden, rng)),
		B:      ps.add(&Param{Name: prefix + ".b", Value: b, Grad: mat.New(1, 4*hidden)}),
		Hidden: hidden,
	}
}

// step advances the cell one timestep. x is 1×in; h and c are 1×hidden.
// It returns the new hidden and cell states.
func (l *LSTMCell) Step(t *Tape, x, h, c *Node) (hNew, cNew *Node) {
	z := t.ConcatCols(x, h)
	gates := t.addRowBroadcast(t.MatMul(z, t.Use(l.W)), t.Use(l.B))
	hd := l.Hidden
	i := t.sigmoid(t.sliceCols(gates, 0, hd))
	f := t.sigmoid(t.sliceCols(gates, hd, 2*hd))
	g := t.Tanh(t.sliceCols(gates, 2*hd, 3*hd))
	o := t.sigmoid(t.sliceCols(gates, 3*hd, 4*hd))
	cNew = t.Add(t.Mul(f, c), t.Mul(i, g))
	hNew = t.Mul(o, t.Tanh(cNew))
	return hNew, cNew
}

// InitState returns zeroed hidden and cell state nodes.
func (l *LSTMCell) InitState(t *Tape) (h, c *Node) {
	return t.Constant(mat.New(1, l.Hidden)), t.Constant(mat.New(1, l.Hidden))
}

// InferBase and InferStep are the cell's tape-free inference form. They read
// W and B in place from the Param values on every call (nothing is cached,
// split or transposed, so further training, a reload or a hot swap needs no
// invalidation) and fix the summation order of the gate pre-activations:
//
//	gates = (b + p·W[0:len(p)]) + xh·W[len(p):]      k ascending throughout
//
// where the input row is [p | x] with a prefix p shared by every step of a
// request (the user features), and xh = [x | h] is the rest of the row
// followed by the previous hidden state — contiguous because W's rows are
// ordered [input | hidden]. Step sums [x, h]·W from zero and adds b last, so
// the two agree to rounding (≤ 1e-12 on RAPID's logits, pinned by
// core.TestForwardMatchesLogits), not bitwise.

// InferBase writes b + p·W[0:len(p)] into base (4·Hidden floats): the part
// of every step's gate pre-activation that the shared input prefix p
// contributes, computed once per sequence instead of once per step.
func (l *LSTMCell) InferBase(base, p []float64) {
	copy(base, l.B.Value.Data)
	mat.AddVecMat(base, p, l.W.Value.Data)
}

// InferStep advances the recurrence one timestep in place. xh holds the
// step's remaining input followed by the hidden state, [x | h]; c is the
// cell state; gates is 4·Hidden floats of scratch. On return the tail of xh
// holds the new hidden state and c the new cell state.
func (l *LSTMCell) InferStep(gates, base, xh, c []float64) {
	hd := l.Hidden
	w := l.W.Value
	copy(gates, base)
	mat.AddVecMat(gates, xh, w.Data[(w.Rows-len(xh))*w.Cols:])
	mat.SigmoidInto(gates[:2*hd], gates[:2*hd]) // input and forget gates
	mat.TanhInto(gates[2*hd:3*hd], gates[2*hd:3*hd])
	mat.SigmoidInto(gates[3*hd:], gates[3*hd:])
	i, f, g, o := gates[:hd], gates[hd:2*hd], gates[2*hd:3*hd], gates[3*hd:4*hd]
	for j := range c {
		c[j] = f[j]*c[j] + i[j]*g[j]
	}
	tc := i // the input gate is spent: it takes tanh c
	mat.TanhInto(tc, c)
	h := xh[len(xh)-hd:]
	for j := range h {
		h[j] = o[j] * tc[j]
	}
}

// lstm runs an LSTMCell over a sequence given as an L×in node (one row per
// timestep) and returns the per-step hidden states stacked as L×hidden.
type LSTM struct {
	Cell *LSTMCell
}

// NewLSTM builds a unidirectional LSTM.
func NewLSTM(ps *ParamSet, prefix string, in, hidden int, rng *rand.Rand) *LSTM {
	return &LSTM{Cell: NewLSTMCell(ps, prefix, in, hidden, rng)}
}

// Forward returns the stacked hidden states (L×hidden); for an empty
// sequence, a 0×hidden node.
func (l *LSTM) Forward(t *Tape, seq *Node) *Node { return t.lstm(l.Cell, seq, false) }

// Last returns the final hidden state (1×hidden) of the sequence, or a zero
// state for an empty sequence. The paper uses this as the per-topic summary
// vector t_j of a user's behavior sequence.
func (l *LSTM) Last(t *Tape, seq *Node) *Node {
	steps := seq.Value.Rows
	if steps == 0 {
		return t.Constant(mat.New(1, l.Cell.Hidden))
	}
	return t.SliceRows(t.lstm(l.Cell, seq, false), steps-1, steps)
}

// lstm records a whole pass of cell over seq — L×in, one row per timestep —
// as one tape node and returns the L×Hidden hidden states: row r is the
// state after the step that read seq row r. With reverse the steps read the
// rows last to first. The initial state is zero.
//
// The node computes bit for bit what L chained cell.Step calls compute, in
// both directions (TestFusedLSTMMatchesStepGraph). Forward, each step calls
// the step graph's kernels in its order: [x | h]·W from zero, + b, the
// activations, c = f·c + i·g, h = o·tanh c. Backward is one sweep from the
// last step to the first that forms each step node's gradient with the
// expression that node's backward uses, and ∂[x | h] with AddMatMulABT's
// two-accumulator dot — its input half only when seq needs a gradient,
// since nothing else reads it. ∂W and ∂b are added after the sweep in the
// order the step graph's MatMul and bias nodes would add them, last step
// first. Float addition is not associative, so that is the whole argument:
// every gradient element takes the same terms in the same sequence.
func (t *Tape) lstm(cell *LSTMCell, seq *Node, reverse bool) *Node {
	w, b := t.Use(cell.W), t.Use(cell.B)
	steps, in, hd := seq.Value.Rows, seq.Value.Cols, cell.Hidden
	if w.Value.Rows != in+hd {
		panic(fmt.Sprintf("nn: LSTM over %d-wide rows, cell wants %d", in, w.Value.Rows-hd))
	}
	xh := t.pool.Get(steps, in+hd) // row s: step s's input [x | h_prev]
	st := t.pool.Get(steps, 6*hd)  // row s: step s's [i f g o | c | tanh c]
	out := t.pool.Get(steps, hd)
	var hPrev, cPrev []float64
	for s := 0; s < steps; s++ {
		r := lstmRow(s, steps, reverse)
		z, sr := xh.Row(s), st.Row(s)
		copy(z, seq.Value.Row(r))
		if s == 0 {
			clear(z[in:])
			cPrev = z[in:] // the zero initial h is also the zero initial c
		} else {
			copy(z[in:], hPrev)
		}
		gates := sr[:4*hd]
		clear(gates)
		mat.AddVecMat(gates, z, w.Value.Data)
		for j, bv := range b.Value.Data {
			gates[j] += bv
		}
		mat.SigmoidInto(gates[:2*hd], gates[:2*hd])
		mat.TanhInto(gates[2*hd:3*hd], gates[2*hd:3*hd])
		mat.SigmoidInto(gates[3*hd:], gates[3*hd:])
		i, f, g, o := gates[:hd], gates[hd:2*hd], gates[2*hd:3*hd], gates[3*hd:]
		c, tc, h := sr[4*hd:5*hd], sr[5*hd:], out.Row(r)
		for j := range c {
			// The conversions round each product before the sum, as the step
			// graph's Mul nodes do; Go may otherwise fuse them into an FMA.
			c[j] = float64(f[j]*cPrev[j]) + float64(i[j]*g[j])
		}
		mat.TanhInto(tc, c)
		for j := range h {
			h[j] = o[j] * tc[j]
		}
		hPrev, cPrev = h, c
	}
	n := t.alloc(out, opLSTM, true)
	n.a, n.b, n.c = seq, w, b
	n.aux, n.aux2 = xh, st
	if reverse {
		n.i0 = 1
	}
	return n
}

// lstmRow is the sequence row that step s of a steps-long pass reads and
// writes.
func lstmRow(s, steps int, reverse bool) int {
	if reverse {
		return steps - 1 - s
	}
	return s
}

// backLSTM is the opLSTM backward step: the BPTT sweep Tape.lstm describes.
// Comments name the step-graph node whose backward each line reproduces.
func (t *Tape) backLSTM(n *Node) {
	seq, xh, st, gout := n.a, n.aux, n.aux2, n.Grad
	steps, hd := gout.Rows, gout.Cols
	in, w, reverse := xh.Cols-hd, n.b.Value, n.i0 == 1
	var gseq *mat.Matrix
	if seq.needsGrad {
		gseq = t.gradOf(seq)
	}
	// Row k of dg is ∂gates of the k-th step the sweep visits, s = steps-1-k.
	dg := t.pool.Get(steps, 4*hd)
	dh := t.pool.GetZeroed(1, hd) // ∂h_s's recurrent term, from step s+1
	dc := t.pool.GetZeroed(1, hd) // ∂c_s's recurrent term, from step s+1
	for k := 0; k < steps; k++ {
		s := steps - 1 - k
		r := lstmRow(s, steps, reverse)
		sr, gr, dgr := st.Row(s), gout.Row(r), dg.Row(k)
		i, f, g, o := sr[:hd], sr[hd:2*hd], sr[2*hd:3*hd], sr[3*hd:4*hd]
		c, tc := sr[4*hd:5*hd], sr[5*hd:]
		cPrev := xh.Row(0)[in:] // zero, as in the forward
		if s > 0 {
			cPrev = st.Row(s - 1)[4*hd : 5*hd]
		}
		di, df, dgg, do := dgr[:hd], dgr[hd:2*hd], dgr[2*hd:3*hd], dgr[3*hd:]
		for j := range c {
			dhj := gr[j] + dh.Data[j]      // the output row, then ConcatCols of step s+1
			dtc := dhj * o[j]              // h = Mul(o, tanh c)
			dcj := dc.Data[j]              // Mul(f, c) of step s+1
			dcj += dtc * (1 - tc[j]*tc[j]) // Tanh(c)
			dij, dgj := dcj*g[j], dcj*i[j] // c = Add(Mul(f, c_prev), Mul(i, g))
			dfj := dcj * cPrev[j]
			dc.Data[j] = dcj * f[j]
			di[j] = dij * i[j] * (1 - i[j]) // Sigmoid
			df[j] = dfj * f[j] * (1 - f[j])
			dgg[j] = dgj * (1 - g[j]*g[j]) // Tanh
			do[j] = dhj * tc[j] * o[j] * (1 - o[j])
		}
		// MatMul([x | h_prev], W): ∂h_prev, and ∂x when seq needs it, each
		// a row of AddMatMulABT over W's rows. ∂h_prev starts from zero,
		// and 0 + d is d: a dot product's two sums never reach -0.
		if s > 0 {
			clear(dh.Data)
			mat.AddMatVec(dh.Data, w.Data[in*w.Cols:], dgr)
		}
		if gseq != nil {
			mat.AddMatVec(gseq.Row(r), w.Data[:in*w.Cols], dgr)
		}
	}
	// addRowBroadcast(·, b) and MatMul(·, W), step by step in sweep order.
	gb, gw := n.c.Grad, n.b.Grad
	for k := 0; k < steps; k++ {
		for j, v := range dg.Row(k) {
			gb.Data[j] += v
		}
	}
	// ∂W row m += Σ_k xh[s_k][m]·dg[k]: column m of [x | h] in sweep order
	// against dg's rows, four steps folded per pass.
	col := t.pool.Get(1, steps)
	for m := 0; m < xh.Cols; m++ {
		for k := range col.Data {
			col.Data[k] = xh.Data[(steps-1-k)*xh.Cols+m]
		}
		mat.AddVecMat(gw.Row(m), col.Data, dg.Data)
	}
	t.pool.Put(col)
	t.pool.Put(dc)
	t.pool.Put(dh)
	t.pool.Put(dg)
}

// BiLSTM runs one LSTM forward and one backward over a sequence and
// concatenates the per-step states, giving L×2·hidden outputs. RAPID's
// listwise relevance estimator (Section III-B) is built on this layer.
type BiLSTM struct {
	Fwd, Bwd *LSTMCell
}

// NewBiLSTM builds a bidirectional LSTM.
func NewBiLSTM(ps *ParamSet, prefix string, in, hidden int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTMCell(ps, prefix+".fwd", in, hidden, rng),
		Bwd: NewLSTMCell(ps, prefix+".bwd", in, hidden, rng),
	}
}

// Forward returns the concatenated forward/backward states, L×2·hidden.
func (b *BiLSTM) Forward(t *Tape, seq *Node) *Node {
	return t.ConcatCols(t.lstm(b.Fwd, seq, false), t.lstm(b.Bwd, seq, true))
}

// GRUCell is a gated recurrent unit (used by the DLCM baseline). Gate order
// in the fused projection is (reset, update); the candidate state has its
// own weights because it depends on the reset-gated hidden state.
type GRUCell struct {
	Wg     *Param // (in+hidden) × 2·hidden, reset and update gates
	Bg     *Param // 1 × 2·hidden
	Wc     *Param // (in+hidden) × hidden, candidate
	Bc     *Param // 1 × hidden
	Hidden int
}

// newGRUCell builds a GRU cell.
func newGRUCell(ps *ParamSet, prefix string, in, hidden int, rng *rand.Rand) *GRUCell {
	return &GRUCell{
		Wg:     ps.New(prefix+".Wg", mat.XavierUniform(in+hidden, 2*hidden, rng)),
		Bg:     ps.New(prefix+".bg", mat.New(1, 2*hidden)),
		Wc:     ps.New(prefix+".Wc", mat.XavierUniform(in+hidden, hidden, rng)),
		Bc:     ps.New(prefix+".bc", mat.New(1, hidden)),
		Hidden: hidden,
	}
}

// step advances the cell one timestep: x is 1×in, h is 1×hidden.
func (g *GRUCell) step(t *Tape, x, h *Node) *Node {
	z := t.ConcatCols(x, h)
	gates := t.sigmoid(t.addRowBroadcast(t.MatMul(z, t.Use(g.Wg)), t.Use(g.Bg)))
	hd := g.Hidden
	r := t.sliceCols(gates, 0, hd)
	u := t.sliceCols(gates, hd, 2*hd)
	zc := t.ConcatCols(x, t.Mul(r, h))
	cand := t.Tanh(t.addRowBroadcast(t.MatMul(zc, t.Use(g.Wc)), t.Use(g.Bc)))
	// h' = (1−u)⊙h + u⊙cand
	one := t.Constant(onesLike(u.Value))
	return t.Add(t.Mul(t.Sub(one, u), h), t.Mul(u, cand))
}

// GRU runs a GRUCell over an L×in sequence, returning L×hidden states.
type GRU struct {
	Cell *GRUCell
}

// NewGRU builds a unidirectional GRU.
func NewGRU(ps *ParamSet, prefix string, in, hidden int, rng *rand.Rand) *GRU {
	return &GRU{Cell: newGRUCell(ps, prefix, in, hidden, rng)}
}

// Forward returns the stacked hidden states (L×hidden).
func (g *GRU) Forward(t *Tape, seq *Node) *Node {
	steps := seq.Value.Rows
	if steps == 0 {
		return t.Constant(mat.New(0, g.Cell.Hidden))
	}
	h := t.Constant(mat.New(1, g.Cell.Hidden))
	out := make([]*Node, steps)
	for i := 0; i < steps; i++ {
		x := t.SliceRows(seq, i, i+1)
		h = g.Cell.step(t, x, h)
		out[i] = h
	}
	return t.ConcatRows(out...)
}

func onesLike(m *mat.Matrix) *mat.Matrix {
	o := mat.New(m.Rows, m.Cols)
	o.Fill(1)
	return o
}
