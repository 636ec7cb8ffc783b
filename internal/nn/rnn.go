package nn

import (
	"math"
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
		B:      ps.Add(&Param{Name: prefix + ".b", Value: b, Grad: mat.New(1, 4*hidden)}),
		Hidden: hidden,
	}
}

// Step advances the cell one timestep. x is 1×in; h and c are 1×hidden.
// It returns the new hidden and cell states.
func (l *LSTMCell) Step(t *Tape, x, h, c *Node) (hNew, cNew *Node) {
	z := t.ConcatCols(x, h)
	gates := t.AddRowBroadcast(t.MatMul(z, t.Use(l.W)), t.Use(l.B))
	hd := l.Hidden
	i := t.Sigmoid(t.SliceCols(gates, 0, hd))
	f := t.Sigmoid(t.SliceCols(gates, hd, 2*hd))
	g := t.Tanh(t.SliceCols(gates, 2*hd, 3*hd))
	o := t.Sigmoid(t.SliceCols(gates, 3*hd, 4*hd))
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
	h := xh[len(xh)-hd:]
	for j := range h {
		c[j] = f[j]*c[j] + i[j]*g[j]
		h[j] = o[j] * math.Tanh(c[j])
	}
}

// LSTM runs an LSTMCell over a sequence given as an L×in node (one row per
// timestep) and returns the per-step hidden states stacked as L×hidden.
type LSTM struct {
	Cell *LSTMCell
}

// NewLSTM builds a unidirectional LSTM.
func NewLSTM(ps *ParamSet, prefix string, in, hidden int, rng *rand.Rand) *LSTM {
	return &LSTM{Cell: NewLSTMCell(ps, prefix, in, hidden, rng)}
}

// Forward returns the stacked hidden states (L×hidden). For an empty
// sequence it returns a 0×hidden node.
func (l *LSTM) Forward(t *Tape, seq *Node) *Node {
	states := l.ForwardAll(t, seq)
	if len(states) == 0 {
		return t.Constant(mat.New(0, l.Cell.Hidden))
	}
	return t.ConcatRows(states...)
}

// ForwardAll returns the hidden state node for each timestep.
func (l *LSTM) ForwardAll(t *Tape, seq *Node) []*Node {
	h, c := l.Cell.InitState(t)
	steps := seq.Value.Rows
	out := make([]*Node, 0, steps)
	for i := 0; i < steps; i++ {
		x := t.SliceRows(seq, i, i+1)
		h, c = l.Cell.Step(t, x, h, c)
		out = append(out, h)
	}
	return out
}

// Last returns the final hidden state (1×hidden) of the sequence, or a zero
// state for an empty sequence. The paper uses this as the per-topic summary
// vector t_j of a user's behavior sequence.
func (l *LSTM) Last(t *Tape, seq *Node) *Node {
	states := l.ForwardAll(t, seq)
	if len(states) == 0 {
		h, _ := l.Cell.InitState(t)
		return h
	}
	return states[len(states)-1]
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
	steps := seq.Value.Rows
	if steps == 0 {
		return t.Constant(mat.New(0, 2*b.Fwd.Hidden))
	}
	fh, fc := b.Fwd.InitState(t)
	fwd := make([]*Node, steps)
	for i := 0; i < steps; i++ {
		x := t.SliceRows(seq, i, i+1)
		fh, fc = b.Fwd.Step(t, x, fh, fc)
		fwd[i] = fh
	}
	bh, bc := b.Bwd.InitState(t)
	bwd := make([]*Node, steps)
	for i := steps - 1; i >= 0; i-- {
		x := t.SliceRows(seq, i, i+1)
		bh, bc = b.Bwd.Step(t, x, bh, bc)
		bwd[i] = bh
	}
	rows := make([]*Node, steps)
	for i := 0; i < steps; i++ {
		rows[i] = t.ConcatCols(fwd[i], bwd[i])
	}
	return t.ConcatRows(rows...)
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

// NewGRUCell builds a GRU cell.
func NewGRUCell(ps *ParamSet, prefix string, in, hidden int, rng *rand.Rand) *GRUCell {
	return &GRUCell{
		Wg:     ps.New(prefix+".Wg", mat.XavierUniform(in+hidden, 2*hidden, rng)),
		Bg:     ps.New(prefix+".bg", mat.New(1, 2*hidden)),
		Wc:     ps.New(prefix+".Wc", mat.XavierUniform(in+hidden, hidden, rng)),
		Bc:     ps.New(prefix+".bc", mat.New(1, hidden)),
		Hidden: hidden,
	}
}

// Step advances the cell one timestep: x is 1×in, h is 1×hidden.
func (g *GRUCell) Step(t *Tape, x, h *Node) *Node {
	z := t.ConcatCols(x, h)
	gates := t.Sigmoid(t.AddRowBroadcast(t.MatMul(z, t.Use(g.Wg)), t.Use(g.Bg)))
	hd := g.Hidden
	r := t.SliceCols(gates, 0, hd)
	u := t.SliceCols(gates, hd, 2*hd)
	zc := t.ConcatCols(x, t.Mul(r, h))
	cand := t.Tanh(t.AddRowBroadcast(t.MatMul(zc, t.Use(g.Wc)), t.Use(g.Bc)))
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
	return &GRU{Cell: NewGRUCell(ps, prefix, in, hidden, rng)}
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
		h = g.Cell.Step(t, x, h)
		out[i] = h
	}
	return t.ConcatRows(out...)
}

func onesLike(m *mat.Matrix) *mat.Matrix {
	o := mat.New(m.Rows, m.Cols)
	o.Fill(1)
	return o
}
