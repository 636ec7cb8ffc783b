package baselines

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/diversify"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// PDGAN reproduces PD-GAN (Wu et al., IJCAI'19): a personalized DPP kernel
// whose quality side is a learned relevance generator and whose similarity
// side is modulated per user, trained adversarially against a discriminator
// that judges whether a set of items looks like something the user actually
// engaged with.
//
// As the paper under reproduction points out, PD-GAN (i) targets the
// ranking stage, scoring items independently of the listwise context, and
// (ii) expresses personalization only through a coarse per-user statistic —
// here, the fraction of topics the user has meaningfully favored, which
// scales the similarity kernel's strength. Both limitations are kept
// intact, since they are what Table II/III measures against.
//
// Training follows the original's two phases in compact form: the quality
// generator is pre-trained pointwise on clicks, then refined with REINFORCE
// against the discriminator's judgment of generated vs clicked item sets.
type PDGAN struct {
	Hidden    int
	K         int // generated-set size during adversarial training
	AdvRounds int
	Seed      int64

	ps   *nn.ParamSet
	gen  *nn.MLP // quality generator over [x_u, x_v, τ_v]
	disc *nn.MLP // discriminator over pooled set representation
	rng  *rand.Rand
	once sync.Once // builds the parameters from the first instance seen
}

// NewPDGAN returns a PD-GAN with small-scale defaults.
func NewPDGAN(qh int, seed int64) *PDGAN {
	return &PDGAN{Hidden: qh, K: 10, AdvRounds: 1, Seed: seed}
}

// Name implements rerank.Reranker.
func (m *PDGAN) Name() string { return "PD-GAN" }

func (m *PDGAN) build(inst *rerank.Instance) {
	rng := rand.New(rand.NewSource(m.Seed))
	m.rng = rand.New(rand.NewSource(m.Seed + 1))
	m.ps = nn.NewParamSet()
	qu := len(inst.UserFeat)
	qv := len(inst.ItemFeat(inst.Items[0]))
	genIn := qu + qv + inst.M
	m.gen = nn.NewMLP(m.ps, "pdgan.gen", []int{genIn, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
	discIn := qu + qv + inst.M
	m.disc = nn.NewMLP(m.ps, "pdgan.disc", []int{discIn, m.Hidden, 1}, nn.ReLU, nn.Linear, rng)
}

// qualityLogits scores every listed item independently (ranking-stage
// scoring: no cross-item interactions).
func (m *PDGAN) qualityLogits(t *nn.Tape, inst *rerank.Instance) *nn.Node {
	l := inst.L()
	qu := len(inst.UserFeat)
	qv := len(inst.ItemFeat(inst.Items[0]))
	in := mat.New(l, qu+qv+inst.M)
	for i := 0; i < l; i++ {
		row := in.Row(i)
		off := copy(row, inst.UserFeat)
		off += copy(row[off:], inst.ItemFeat(inst.Items[i]))
		copy(row[off:], inst.Cover[i])
	}
	return m.gen.Forward(t, t.Constant(in))
}

// discLogit scores a pooled set representation: mean item features and
// coverage of the set, concatenated with the user features.
func (m *PDGAN) discLogit(t *nn.Tape, inst *rerank.Instance, set []int) *nn.Node {
	qu := len(inst.UserFeat)
	qv := len(inst.ItemFeat(inst.Items[0]))
	pooled := mat.New(1, qu+qv+inst.M)
	row := pooled.Row(0)
	copy(row, inst.UserFeat)
	if len(set) > 0 {
		inv := 1 / float64(len(set))
		for _, idx := range set {
			f := inst.ItemFeat(inst.Items[idx])
			for j, v := range f {
				row[qu+j] += v * inv
			}
			for j, v := range inst.Cover[idx] {
				row[qu+qv+j] += v * inv
			}
		}
	}
	return m.disc.Forward(t, t.Constant(pooled))
}

// diversityStrength is PD-GAN's coarse personalization signal: the fraction
// of topics the user's history favors above the uniform level.
func diversityStrength(inst *rerank.Instance) float64 {
	pref := inst.HistoryPreference()
	thresh := 0.5 / float64(inst.M)
	n := 0
	for _, p := range pref {
		if p > thresh {
			n++
		}
	}
	return float64(n) / float64(inst.M)
}

// personalKernel builds the user-modulated DPP kernel from quality scores.
func (m *PDGAN) personalKernel(inst *rerank.Instance, quality []float64) *mat.Matrix {
	l := inst.L()
	w := diversityStrength(inst)
	k := mat.New(l, l)
	for i := 0; i < l; i++ {
		fi := inst.ItemFeat(inst.Items[i])
		for j := i; j < l; j++ {
			fj := inst.ItemFeat(inst.Items[j])
			sim := mat.Clamp(0.7*cosine(inst.Cover[i], inst.Cover[j])+0.3*cosine(fi, fj), 0, 1)
			// Diverse users (large w) keep the full similarity penalty;
			// focused users have it attenuated.
			v := quality[i] * quality[j] * math.Pow(sim, 1-w+1e-3)
			if i == j {
				v = quality[i]*quality[i] + 1e-6
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}

func (m *PDGAN) qualities(inst *rerank.Instance) []float64 {
	t := nn.NewTape()
	logits := m.qualityLogits(t, inst)
	q := make([]float64, inst.L())
	for i := range q {
		q[i] = math.Exp(mat.Sigmoid(logits.Value.Data[i]))
	}
	return q
}

// Fit implements rerank.Trainable.
func (m *PDGAN) Fit(train []*rerank.Instance) error {
	if len(train) == 0 {
		return nil
	}
	m.once.Do(func() { m.build(train[0]) })
	genParams := paramsWithPrefix(m.ps, "pdgan.gen")
	discParams := paramsWithPrefix(m.ps, "pdgan.disc")
	genOpt := nn.NewAdam(0.003)
	discOpt := nn.NewAdam(0.003)

	// Phase 1: pointwise pre-training of the generator on clicks.
	for epoch := 0; epoch < 2; epoch++ {
		for _, idx := range m.rng.Perm(len(train)) {
			inst := train[idx]
			t := nn.NewTape()
			logits := m.qualityLogits(t, inst)
			loss := t.SigmoidBCE(logits, inst.Labels)
			t.Backward(loss)
			genOpt.Step(genParams)
		}
	}

	// Phase 2: adversarial refinement with REINFORCE.
	baseline := 0.0
	for round := 0; round < m.AdvRounds; round++ {
		for _, idx := range m.rng.Perm(len(train)) {
			inst := train[idx]
			real := clickedSet(inst)
			if len(real) == 0 {
				continue
			}
			fake := diversify.GreedyMAP(m.personalKernel(inst, m.qualities(inst)), m.K)
			// Discriminator step: real 1, fake 0.
			for _, ex := range []struct {
				set   []int
				label float64
			}{{real, 1}, {fake, 0}} {
				t := nn.NewTape()
				logit := m.discLogit(t, inst, ex.set)
				loss := t.SigmoidBCE(logit, []float64{ex.label})
				t.Backward(loss)
				discOpt.Step(discParams)
			}
			// Generator step: REINFORCE with reward = log D(fake).
			t := nn.NewTape()
			dval := mat.Sigmoid(m.discLogit(t, inst, fake).Value.Data[0])
			reward := math.Log(dval + 1e-6)
			baseline = 0.9*baseline + 0.1*reward
			advantage := reward - baseline
			tg := nn.NewTape()
			logits := m.qualityLogits(tg, inst)
			// Surrogate loss: −advantage · Σ_{i∈fake} log σ(logit_i).
			targets := make([]float64, inst.L())
			for _, i := range fake {
				targets[i] = 1
			}
			loss := tg.Scale(tg.SigmoidBCE(logits, targets), advantage)
			tg.Backward(loss)
			genOpt.Step(genParams)
		}
	}
	return nil
}

// Scores implements rerank.Reranker.
func (m *PDGAN) Scores(inst *rerank.Instance) []float64 {
	m.once.Do(func() { m.build(inst) })
	order := diversify.GreedyMAP(m.personalKernel(inst, m.qualities(inst)), inst.L())
	return diversify.GreedyScores(order, inst.L())
}

func clickedSet(inst *rerank.Instance) []int {
	var out []int
	for i, y := range inst.Labels {
		if y > 0.5 {
			out = append(out, i)
		}
	}
	return out
}

func paramsWithPrefix(ps *nn.ParamSet, prefix string) []*nn.Param {
	var out []*nn.Param
	for _, p := range ps.All() {
		if len(p.Name) >= len(prefix) && p.Name[:len(prefix)] == prefix {
			out = append(out, p)
		}
	}
	return out
}
