package nn

import (
	"math"
	"math/rand"
	"strconv"

	"repro/internal/mat"
)

// SelfAttention implements the parameter-free scaled dot-product
// self-attention of RAPID's Eq. (2):
//
//	A = softmax(V·Vᵀ/√d)·V
//
// It has no weights; it exists as a method on Tape for symmetry with the
// parametric attention below.
func SelfAttention(t *Tape, v *Node) *Node {
	d := float64(v.Value.Cols)
	scores := t.Scale(t.MatMul(v, t.Transpose(v)), 1/math.Sqrt(d))
	return t.MatMul(t.SoftmaxRows(scores), v)
}

// AttentionHead is a single projected attention head:
// softmax(Q·Kᵀ/√d)·V with Q = x·Wq, K = x·Wk, V = x·Wv.
type AttentionHead struct {
	Wq, Wk, Wv *Param
	Dim        int
}

// NewAttentionHead creates a head projecting `in`-dim rows to `dim`-dim.
func NewAttentionHead(ps *ParamSet, prefix string, in, dim int, rng *rand.Rand) *AttentionHead {
	return &AttentionHead{
		Wq:  ps.New(prefix+".Wq", mat.XavierUniform(in, dim, rng)),
		Wk:  ps.New(prefix+".Wk", mat.XavierUniform(in, dim, rng)),
		Wv:  ps.New(prefix+".Wv", mat.XavierUniform(in, dim, rng)),
		Dim: dim,
	}
}

// Forward computes attention over the rows of x (L×in), optionally applying
// a mask added to the score matrix before the softmax (nil for no mask).
// Masks encode structural constraints: SRGA's unidirectional attention
// passes a lower-triangular mask, its local attention a band mask.
func (h *AttentionHead) Forward(t *Tape, x *Node, mask *mat.Matrix) *Node {
	q := t.MatMul(x, t.Use(h.Wq))
	k := t.MatMul(x, t.Use(h.Wk))
	v := t.MatMul(x, t.Use(h.Wv))
	scores := t.Scale(t.MatMul(q, t.Transpose(k)), 1/math.Sqrt(float64(h.Dim)))
	if mask != nil {
		scores = t.Add(scores, t.Constant(mask))
	}
	return t.MatMul(t.SoftmaxRows(scores), v)
}

// CrossForward computes attention where queries come from x (Lq×in) and
// keys/values from y (Lk×in). Used for induced set attention in SetRank.
func (h *AttentionHead) CrossForward(t *Tape, x, y *Node) *Node {
	q := t.MatMul(x, t.Use(h.Wq))
	k := t.MatMul(y, t.Use(h.Wk))
	v := t.MatMul(y, t.Use(h.Wv))
	scores := t.Scale(t.MatMul(q, t.Transpose(k)), 1/math.Sqrt(float64(h.Dim)))
	return t.MatMul(t.SoftmaxRows(scores), v)
}

// MultiHeadAttention concatenates several heads and projects back to the
// model dimension, as in Vaswani et al. Used by the PRM and SetRank
// baselines and RAPID-trans.
type MultiHeadAttention struct {
	Heads []*AttentionHead
	Wo    *Param
}

// NewMultiHeadAttention builds `heads` heads of size dim/heads each over
// dim-wide rows. dim must be divisible by heads.
func NewMultiHeadAttention(ps *ParamSet, prefix string, dim, heads int, rng *rand.Rand) *MultiHeadAttention {
	if heads <= 0 || dim%heads != 0 {
		panic("nn: MultiHeadAttention dim must be divisible by heads")
	}
	m := &MultiHeadAttention{Wo: ps.New(prefix+".Wo", mat.XavierUniform(dim, dim, rng))}
	hd := dim / heads
	for i := 0; i < heads; i++ {
		m.Heads = append(m.Heads, NewAttentionHead(ps, prefix+".h"+strconv.Itoa(i), dim, hd, rng))
	}
	return m
}

// Forward applies every head to x (L×dim) and mixes with Wo.
func (m *MultiHeadAttention) Forward(t *Tape, x *Node, mask *mat.Matrix) *Node {
	outs := make([]*Node, len(m.Heads))
	for i, h := range m.Heads {
		outs[i] = h.Forward(t, x, mask)
	}
	return t.MatMul(t.ConcatCols(outs...), t.Use(m.Wo))
}

// TransformerBlock is one pre-norm-free encoder block: multi-head
// self-attention with a residual connection and layer norm, followed by a
// position-wise feed-forward with another residual + norm.
type TransformerBlock struct {
	Attn     *MultiHeadAttention
	Norm1    *LayerNorm
	FF1, FF2 *Dense
	Norm2    *LayerNorm
}

// NewTransformerBlock builds a block with model width dim, `heads` heads and
// an ff-wide inner feed-forward layer.
func NewTransformerBlock(ps *ParamSet, prefix string, dim, heads, ff int, rng *rand.Rand) *TransformerBlock {
	return &TransformerBlock{
		Attn:  NewMultiHeadAttention(ps, prefix+".attn", dim, heads, rng),
		Norm1: NewLayerNorm(ps, prefix+".ln1", dim),
		FF1:   NewDense(ps, prefix+".ff1", dim, ff, ReLU, rng),
		FF2:   NewDense(ps, prefix+".ff2", ff, dim, Linear, rng),
		Norm2: NewLayerNorm(ps, prefix+".ln2", dim),
	}
}

// Forward applies the block to x (L×dim).
func (b *TransformerBlock) Forward(t *Tape, x *Node, mask *mat.Matrix) *Node {
	a := t.Add(x, b.Attn.Forward(t, x, mask))
	a = b.Norm1.Forward(t, a)
	f := t.Add(a, b.FF2.Forward(t, b.FF1.Forward(t, a)))
	return b.Norm2.Forward(t, f)
}

// CausalMask returns an L×L additive mask with −inf-like penalties above the
// diagonal, restricting attention to previous positions (SRGA's
// unidirectional browsing assumption).
func CausalMask(l int) *mat.Matrix {
	m := mat.New(l, l)
	for i := 0; i < l; i++ {
		for j := i + 1; j < l; j++ {
			m.Set(i, j, maskPenalty)
		}
	}
	return m
}

// BandMask returns an L×L additive mask allowing each position to attend
// only to neighbors within the given radius (SRGA's local attention).
func BandMask(l, radius int) *mat.Matrix {
	m := mat.New(l, l)
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			if j < i-radius || j > i+radius {
				m.Set(i, j, maskPenalty)
			}
		}
	}
	return m
}

// maskPenalty is a large negative number used instead of −inf so the
// softmax stays finite even for fully masked rows.
const maskPenalty = -1e9
