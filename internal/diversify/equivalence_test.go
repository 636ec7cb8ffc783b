package diversify_test

// Equivalence harness for the baselines→diversify lift: the MMR and DPP
// selection loops below are frozen, verbatim copies of the pre-lift
// internal/baselines implementations. The tests drive both the refactored
// baselines re-rankers and the diversify-package cores over randomized
// instances and demand item-for-item identical output, so the lift can never
// silently change a published baseline number.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/diversify"
	"repro/internal/mat"
	"repro/internal/rerank"
	"repro/internal/topics"
)

// --- frozen legacy copies (internal/baselines @ pre-lift HEAD) ---

func legacyGreedyScores(order []int, l int) []float64 {
	scores := make([]float64, l)
	for rank, idx := range order {
		scores[idx] = float64(l - rank)
	}
	return scores
}

func legacyNormalizeRelevance(init []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range init {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	out := make([]float64, len(init))
	if hi-lo < 1e-12 {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, s := range init {
		out[i] = (s - lo) / (hi - lo)
	}
	return out
}

func legacyMMRScores(inst *rerank.Instance, theta float64, topicWeights []float64) []float64 {
	l := inst.L()
	rel := legacyNormalizeRelevance(inst.InitScores)
	ic := topics.NewIncrementalCoverage(inst.M)
	selected := make([]bool, l)
	order := make([]int, 0, l)
	for len(order) < l {
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < l; i++ {
			if selected[i] {
				continue
			}
			var gain float64
			if topicWeights == nil {
				gain = ic.GainTotal(inst.Cover[i])
			} else {
				g := ic.Gain(inst.Cover[i])
				gain = mat.Dot(topicWeights, g) * float64(inst.M)
			}
			s := theta*rel[i] + (1-theta)*gain
			if s > bestScore {
				best, bestScore = i, s
			}
		}
		selected[best] = true
		ic.Add(inst.Cover[best])
		order = append(order, best)
	}
	return legacyGreedyScores(order, l)
}

func legacyCosine(a, b []float64) float64 {
	na, nb := mat.NormVec(a), mat.NormVec(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return mat.Dot(a, b) / (na * nb)
}

func legacyDPPKernel(inst *rerank.Instance, qualityWeight, featureMix float64) *mat.Matrix {
	l := inst.L()
	rel := legacyNormalizeRelevance(inst.InitScores)
	q := make([]float64, l)
	for i := range q {
		q[i] = math.Exp(qualityWeight * rel[i])
	}
	k := mat.New(l, l)
	for i := 0; i < l; i++ {
		fi := inst.ItemFeat(inst.Items[i])
		for j := i; j < l; j++ {
			fj := inst.ItemFeat(inst.Items[j])
			sim := (1-featureMix)*legacyCosine(inst.Cover[i], inst.Cover[j]) + featureMix*legacyCosine(fi, fj)
			sim = mat.Clamp(sim, 0, 1)
			v := q[i] * sim * q[j]
			if i == j {
				v = q[i]*q[i] + 1e-6
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return k
}

func legacyGreedyMAP(kernel *mat.Matrix, k int) []int {
	n := kernel.Rows
	if k > n {
		k = n
	}
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = kernel.At(i, i)
	}
	cvecs := make([][]float64, n)
	selected := make([]bool, n)
	order := make([]int, 0, k)
	for len(order) < k {
		best, bestGain := -1, 0.0
		for i := 0; i < n; i++ {
			if !selected[i] && (best < 0 || d2[i] > bestGain) {
				best, bestGain = i, d2[i]
			}
		}
		if best < 0 || d2[best] <= 1e-12 {
			for i := 0; i < n && len(order) < k; i++ {
				if !selected[i] {
					selected[i] = true
					order = append(order, i)
				}
			}
			break
		}
		j := best
		selected[j] = true
		order = append(order, j)
		dj := math.Sqrt(d2[j])
		cj := cvecs[j]
		for i := 0; i < n; i++ {
			if selected[i] {
				continue
			}
			var dot float64
			ci := cvecs[i]
			for t := 0; t < len(cj) && t < len(ci); t++ {
				dot += cj[t] * ci[t]
			}
			e := (kernel.At(j, i) - dot) / dj
			cvecs[i] = append(cvecs[i], e)
			d2[i] -= e * e
			if d2[i] < 0 {
				d2[i] = 0
			}
		}
	}
	return order
}

// --- randomized instance builder ---

// randomInstance builds a well-formed re-rank instance: n items with ids
// 0..n-1 in random initial order, rectangular [0,1] m-topic coverage, dense
// feature vectors and a short history for adpMMR's preference entropy.
func randomInstance(rng *rand.Rand, n, m, f int) *rerank.Instance {
	feats := make([][]float64, n)
	covers := make([][]float64, n)
	for v := 0; v < n; v++ {
		feats[v] = make([]float64, f)
		for j := range feats[v] {
			feats[v][j] = rng.NormFloat64()
		}
		covers[v] = make([]float64, m)
		for j := range covers[v] {
			if rng.Intn(3) > 0 {
				covers[v][j] = rng.Float64()
			}
		}
	}
	items := rng.Perm(n)
	inst := &rerank.Instance{
		User:       rng.Intn(100),
		Items:      items,
		InitScores: make([]float64, n),
		Cover:      make([][]float64, n),
		M:          m,
		ItemFeat:   func(v int) []float64 { return feats[v] },
		CoverOf:    func(v int) []float64 { return covers[v] },
	}
	for i, v := range items {
		inst.InitScores[i] = rng.NormFloat64()
		inst.Cover[i] = covers[v]
	}
	for h := 0; h < 3+rng.Intn(10); h++ {
		inst.History = append(inst.History, rng.Intn(n))
	}
	return inst
}

const equivTrials = 60

// TestMMREquivalence: the refactored baselines.MMR (delegating to
// diversify.MMRSelect) matches the frozen legacy loop score-for-score.
func TestMMREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := baselines.NewMMR()
	for trial := 0; trial < equivTrials; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(24), 1+rng.Intn(6), 4)
		got := m.Scores(inst)
		want := legacyMMRScores(inst, m.Theta, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MMR scores diverged from legacy\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestAdpMMREquivalence: the per-user θ path (entropy-adaptive trade-off)
// also survives the lift unchanged.
func TestAdpMMREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := baselines.NewAdpMMR()
	for trial := 0; trial < equivTrials; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(24), 2+rng.Intn(5), 4)
		pref := inst.HistoryPreference()
		theta := 1 - m.MaxDiversityWeight*mat.Entropy(pref)/math.Log(float64(inst.M))
		got := m.Scores(inst)
		want := legacyMMRScores(inst, theta, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: adpMMR scores diverged from legacy\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestDPPEquivalence: the refactored baselines.DPP kernel + the lifted
// greedy MAP reproduce the frozen legacy selection exactly, and the
// diversify-native DPP at λ=0.5 (where the quality sharpness w equals the
// legacy QualityWeight) yields the identical permutation through the
// Diversifier interface.
func TestDPPEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := baselines.NewDPP()
	nd, err := diversify.New("dpp")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < equivTrials; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(24), 1+rng.Intn(6), 4)
		legacyKernel := legacyDPPKernel(inst, d.QualityWeight, d.FeatureMix)
		want := legacyGreedyScores(legacyGreedyMAP(legacyKernel, inst.L()), inst.L())
		if got := d.Scores(inst); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: baselines DPP diverged from legacy\n got %v\nwant %v", trial, got, want)
		}
		if got := diversify.AsReranker(nd, 0.5).Scores(inst); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: diversify DPP@λ=0.5 diverged from legacy\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestGreedyMAPEquivalence drives diversify.GreedyMAP over random PSD
// kernels directly, independent of instance plumbing, against the frozen
// legacy copy.
func TestGreedyMAPEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < equivTrials; trial++ {
		n := 2 + rng.Intn(20)
		// Gram matrix of random vectors: PSD by construction.
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, 6)
			for j := range vecs[i] {
				vecs[i][j] = rng.NormFloat64()
			}
		}
		kernel := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := mat.Dot(vecs[i], vecs[j])
				if i == j {
					v += 1e-6
				}
				kernel.Set(i, j, v)
			}
		}
		k := 1 + rng.Intn(n)
		want := legacyGreedyMAP(kernel, k)
		if got := diversify.GreedyMAP(kernel, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: diversify.GreedyMAP diverged\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestMMRSelectEquivalence drives the lifted selection loop directly with
// the exact legacy θ, bypassing the λ→θ mapping, so the shared core is
// pinned independently of the adapter arithmetic.
func TestMMRSelectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < equivTrials; trial++ {
		inst := randomInstance(rng, 2+rng.Intn(24), 1+rng.Intn(6), 4)
		theta := rng.Float64()
		rel := legacyNormalizeRelevance(inst.InitScores)
		order := diversify.MMRSelect(rel, inst.Cover, inst.M, theta, nil)
		got := diversify.GreedyScores(order, inst.L())
		want := legacyMMRScores(inst, theta, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (θ=%v): MMRSelect diverged from legacy\n got %v\nwant %v", trial, theta, got, want)
		}
	}
}
