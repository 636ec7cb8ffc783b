package baselines

import (
	"math/rand"

	"repro/internal/nn"
	"repro/internal/rerank"
)

// SRGA (Qian et al., WSDM'22) augments listwise attention with two
// structural priors of feed browsing: unidirectionality (users scan
// top-down, so attention is causal) and locality (neighboring items
// interact most). A learned gate mixes the unidirectional and the local
// attention views per position.
type SRGA struct{ *rerank.Net }

// srgaRadius is the locality radius of SRGA's banded attention.
const srgaRadius = 2

// NewSRGA returns an SRGA with hidden width qh.
func NewSRGA(qh int, seed int64) *SRGA {
	return &SRGA{rerank.NewNet(seed, func(ps *nn.ParamSet, inst *rerank.Instance, rng *rand.Rand) rerank.LogitsFunc {
		dim := 2 * qh
		proj := nn.NewDense(ps, "srga.proj", inst.FeatureDim(), dim, nn.Linear, rng)
		uni := nn.NewAttentionHead(ps, "srga.uni", dim, dim, rng)
		local := nn.NewAttentionHead(ps, "srga.local", dim, dim, rng)
		gate := nn.NewDense(ps, "srga.gate", dim, dim, nn.SigmoidAct, rng)
		norm := nn.NewLayerNorm(ps, "srga.ln", dim)
		score := nn.NewMLP(ps, "srga.score", []int{dim, qh, 1}, nn.ReLU, nn.Linear, rng)
		return func(t *nn.Tape, inst *rerank.Instance, _ bool) *nn.Node {
			h := proj.Forward(t, t.Constant(inst.ListFeatures()))
			l := inst.L()
			u := uni.Forward(t, h, nn.CausalMask(l))
			loc := local.Forward(t, h, nn.BandMask(l, srgaRadius))
			g := gate.Forward(t, h)
			one := t.Constant(onesMat(l, g.Value.Cols))
			mixed := t.Add(t.Mul(g, u), t.Mul(t.Sub(one, g), loc))
			return score.Forward(t, norm.Forward(t, t.Add(h, mixed)))
		}
	})}
}

// Name implements rerank.Reranker.
func (m *SRGA) Name() string { return "SRGA" }
