package baselines

import (
	"math/rand"
	"strconv"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// PRM is Pei et al.'s Personalized Re-ranking Model: item features (with
// the personalized initial-ranker score) pass through transformer encoder
// blocks whose self-attention models the cross-item interactions, followed
// by a position-wise scoring layer. Learned positional embeddings are added
// to the projected inputs as in the original.
type PRM struct{ *rerank.Net }

// PRM's geometry beside the hidden width: two encoder blocks of two heads,
// and positional embeddings for lists of up to prmMaxLen items.
const (
	prmBlocks = 2
	prmHeads  = 2
	prmMaxLen = 64
)

// NewPRM returns a PRM with hidden width qh.
func NewPRM(qh int, seed int64) *PRM {
	return &PRM{rerank.NewNet(seed, func(ps *nn.ParamSet, inst *rerank.Instance, rng *rand.Rand) rerank.LogitsFunc {
		dim := 2 * qh
		proj := nn.NewDense(ps, "prm.proj", inst.FeatureDim(), dim, nn.Linear, rng)
		posEmb := ps.New("prm.pos", mat.RandNormal(prmMaxLen, dim, 0, 0.02, rng))
		blocks := make([]*nn.TransformerBlock, prmBlocks)
		for b := range blocks {
			blocks[b] = nn.NewTransformerBlock(ps, "prm.block"+strconv.Itoa(b), dim, prmHeads, 2*dim, rng)
		}
		score := nn.NewMLP(ps, "prm.score", []int{dim, qh, 1}, nn.ReLU, nn.Linear, rng)
		return func(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
			h := proj.Forward(t, t.Constant(inst.ListFeatures()))
			l := inst.L()
			if l > prmMaxLen {
				panic("baselines: PRM list longer than " + strconv.Itoa(prmMaxLen) + " items")
			}
			h = t.Add(h, t.SliceRows(t.Use(posEmb), 0, l))
			for _, b := range blocks {
				h = b.Forward(t, h, nil)
			}
			return score.Forward(t, h)
		}
	})}
}

// Name implements rerank.Reranker.
func (m *PRM) Name() string { return "PRM" }
