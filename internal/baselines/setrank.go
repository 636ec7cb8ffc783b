package baselines

import (
	"math/rand"
	"strconv"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// SetRank (Pang et al., SIGIR'20) learns a permutation-invariant ranking
// model with induced multi-head self-attention blocks (IMSAB): attention is
// routed through a small set of learned inducing points, which removes the
// positional dependence of ordinary stacked self-attention and keeps the
// cost linear in the list length.
type SetRank struct{ *rerank.Net }

// SetRank's geometry beside the hidden width: two IMSAB blocks of two
// heads, each routed through four inducing points.
const (
	setRankBlocks  = 2
	setRankHeads   = 2
	setRankInduced = 4
)

// imsabBlock is one induced multi-head self-attention block:
// H = MHA(I, X); Y = MHA(X, H) with learned inducing points I.
type imsabBlock struct {
	induce      *nn.Param
	toInduced   *nn.MultiHeadAttention
	fromInduced *nn.MultiHeadAttention
	norm        *nn.LayerNorm
}

// NewSetRank returns a SetRank with hidden width qh.
func NewSetRank(qh int, seed int64) *SetRank {
	return &SetRank{rerank.NewNet(seed, func(ps *nn.ParamSet, inst *rerank.Instance, rng *rand.Rand) rerank.LogitsFunc {
		dim := 2 * qh
		proj := nn.NewDense(ps, "setrank.proj", inst.FeatureDim(), dim, nn.Linear, rng)
		imsab := make([]*imsabBlock, setRankBlocks)
		for b := range imsab {
			prefix := "setrank.b" + strconv.Itoa(b)
			imsab[b] = &imsabBlock{
				induce:      ps.New(prefix+".I", mat.RandNormal(setRankInduced, dim, 0, 0.1, rng)),
				toInduced:   nn.NewMultiHeadAttention(ps, prefix+".to", dim, setRankHeads, rng),
				fromInduced: nn.NewMultiHeadAttention(ps, prefix+".from", dim, setRankHeads, rng),
				norm:        nn.NewLayerNorm(ps, prefix+".ln", dim),
			}
		}
		score := nn.NewMLP(ps, "setrank.score", []int{dim, qh, 1}, nn.ReLU, nn.Linear, rng)
		return func(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
			h := proj.Forward(t, t.Constant(inst.ListFeatures()))
			for _, b := range imsab {
				h = b.forward(t, h)
			}
			return score.Forward(t, h)
		}
	})}
}

// Name implements rerank.Reranker.
func (m *SetRank) Name() string { return "SetRank" }

func (b *imsabBlock) forward(t *nn.Tape, x *nn.Node) *nn.Node {
	// Cross-attention through the inducing points. A MultiHeadAttention's
	// heads expose CrossForward for the (queries, keys/values) split.
	ind := t.Use(b.induce)
	h := crossMHA(t, b.toInduced, ind, x)
	y := crossMHA(t, b.fromInduced, x, h)
	return b.norm.Forward(t, t.Add(x, y))
}

func crossMHA(t *nn.Tape, mha *nn.MultiHeadAttention, q, kv *nn.Node) *nn.Node {
	outs := make([]*nn.Node, len(mha.Heads))
	for i, h := range mha.Heads {
		outs[i] = h.CrossForward(t, q, kv)
	}
	return t.MatMul(t.ConcatCols(outs...), t.Use(mha.Wo))
}
