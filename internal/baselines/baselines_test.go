package baselines

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/diversify"
	"repro/internal/mat"
	"repro/internal/rerank"
)

// fixture builds small labeled instances shared by the baseline tests.
func fixture(t testing.TB, n int) []*rerank.Instance {
	t.Helper()
	cfg := dataset.TaobaoLike(21)
	cfg.NumUsers = 25
	cfg.NumItems = 70
	cfg.Categories = 15
	cfg.RerankRequests = n
	cfg.TestRequests = 1
	cfg.ListLen = 8
	cfg.PoolSize = 12
	d := dataset.MustGenerate(cfg)
	rng := rand.New(rand.NewSource(9))
	var out []*rerank.Instance
	for i := 0; i < n; i++ {
		p := d.RerankPools[i%len(d.RerankPools)]
		items := append([]int(nil), p.Candidates[:cfg.ListLen]...)
		scores := make([]float64, len(items))
		clicks := make([]bool, len(items))
		for k, v := range items {
			scores[k] = d.Relevance(p.User, v) + rng.NormFloat64()*0.1
			clicks[k] = rng.Float64() < d.Relevance(p.User, v)
		}
		req := dataset.Request{User: p.User, Items: items, InitScores: scores, Clicks: clicks}
		out = append(out, rerank.NewInstance(d, req, rng))
	}
	return out
}

// checkScores verifies the Reranker contract: right length, no NaNs, and
// the instance untouched.
func checkScores(t *testing.T, r rerank.Reranker, inst *rerank.Instance) []float64 {
	t.Helper()
	before := append([]float64(nil), inst.InitScores...)
	s := r.Scores(inst)
	if len(s) != inst.L() {
		t.Fatalf("%s: %d scores for %d items", r.Name(), len(s), inst.L())
	}
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s: invalid score %v", r.Name(), v)
		}
	}
	for i := range before {
		if inst.InitScores[i] != before[i] {
			t.Fatalf("%s mutated the instance", r.Name())
		}
	}
	return s
}

func TestNeuralBaselinesTrainAndScore(t *testing.T) {
	train := fixture(t, 24)
	test := fixture(t, 4)
	models := []rerank.Reranker{
		NewDLCM(8, 1),
		NewPRM(8, 2),
		NewSetRank(8, 3),
		NewSRGA(8, 4),
		NewDESA(8, 5),
	}
	for _, m := range models {
		tr := m.(rerank.Trainable)
		cfg := rerank.TrainConfig{Epochs: 2, LR: 0.005, BatchSize: 4, ClipNorm: 5, Seed: 1}
		switch mm := m.(type) {
		case *DLCM:
			mm.TrainCfg = cfg
		case *PRM:
			mm.TrainCfg = cfg
		case *SetRank:
			mm.TrainCfg = cfg
		case *SRGA:
			mm.TrainCfg = cfg
		case *DESA:
			mm.TrainCfg = cfg
		}
		if err := tr.Fit(train); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, inst := range test {
			checkScores(t, m, inst)
		}
	}
}

func TestNeuralBaselineLearnsClicks(t *testing.T) {
	// After training, PRM must score clicked items above unclicked ones on
	// the training set more often than chance.
	train := fixture(t, 40)
	m := NewPRM(8, 7)
	m.TrainCfg = rerank.TrainConfig{Epochs: 8, LR: 0.01, BatchSize: 4, ClipNorm: 5, Seed: 7}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for _, inst := range train {
		s := m.Scores(inst)
		for i := range s {
			for j := range s {
				if inst.Labels[i] > inst.Labels[j] {
					total++
					if s[i] > s[j] {
						correct++
					}
				}
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.55 {
		t.Fatalf("PRM train pairwise accuracy %v, want > 0.55", acc)
	}
}

func TestMMRFirstPickIsTopScore(t *testing.T) {
	inst := fixture(t, 1)[0]
	m := &MMR{Theta: 1.0} // pure relevance: must reproduce the init order
	s := m.Scores(inst)
	order := rerank.OrderByScores(inst.Items, s)
	want := rerank.OrderByScores(inst.Items, inst.InitScores)
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("θ=1 MMR deviates from relevance order at %d", i)
		}
	}
}

func TestMMRDiversifies(t *testing.T) {
	inst := fixture(t, 1)[0]
	divAt := func(order []int) float64 {
		idx := map[int]int{}
		for pos, v := range inst.Items {
			idx[v] = pos
		}
		cover := make([][]float64, 0, 5)
		for _, v := range order[:5] {
			cover = append(cover, inst.Cover[idx[v]])
		}
		var sum float64
		for _, c := range coverage(cover, inst.M) {
			sum += c
		}
		return sum
	}
	pureRel := rerank.Apply(&MMR{Theta: 1.0}, inst)
	diversified := rerank.Apply(&MMR{Theta: 0.2}, inst)
	if divAt(diversified) < divAt(pureRel)-1e-9 {
		t.Fatalf("θ=0.2 MMR top-5 coverage %v below pure relevance %v", divAt(diversified), divAt(pureRel))
	}
}

func coverage(cover [][]float64, m int) []float64 {
	out := make([]float64, m)
	for j := 0; j < m; j++ {
		rem := 1.0
		for _, c := range cover {
			rem *= 1 - c[j]
		}
		out[j] = 1 - rem
	}
	return out
}

func TestAdpMMRPropensityDirection(t *testing.T) {
	insts := fixture(t, 20)
	// The most entropic user should get a more diverse list than the most
	// focused one, relative to their own pure-relevance lists.
	adp := NewAdpMMR()
	for _, inst := range insts {
		s := checkScores(t, adp, inst)
		if len(s) != inst.L() {
			t.Fatal("bad score length")
		}
	}
}

func TestGreedyScoresEncodeOrder(t *testing.T) {
	s := diversify.GreedyScores([]int{2, 0, 1}, 3)
	// Item 2 picked first → highest score.
	if !(s[2] > s[0] && s[0] > s[1]) {
		t.Fatalf("GreedyScores = %v", s)
	}
}

func TestNormalizeRelevance(t *testing.T) {
	out := diversify.NormalizeRelevance([]float64{2, 4, 6})
	if out[0] != 0 || out[2] != 1 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Fatalf("NormalizeRelevance = %v", out)
	}
	flat := diversify.NormalizeRelevance([]float64{3, 3})
	if flat[0] != 0.5 || flat[1] != 0.5 {
		t.Fatalf("constant input = %v", flat)
	}
}

func TestDPPGreedyMatchesExhaustive(t *testing.T) {
	// On a tiny kernel, the first greedy pick must be the max-determinant
	// singleton and each greedy step must maximize the log-det gain.
	rng := rand.New(rand.NewSource(33))
	n := 6
	// Build a PSD kernel L = B·Bᵀ + εI.
	b := mat.RandNormal(n, 3, 0, 1, rng)
	kernel := b.MatMul(b.T())
	for i := 0; i < n; i++ {
		kernel.Set(i, i, kernel.At(i, i)+0.1)
	}
	order := diversify.GreedyMAP(kernel, 3)
	if len(order) != 3 {
		t.Fatalf("greedy returned %d items", len(order))
	}
	// Verify each prefix beats all single-swap alternatives of the last pick.
	for k := 1; k <= 3; k++ {
		base := diversify.LogDet(kernel, order[:k])
		for alt := 0; alt < n; alt++ {
			if contains(order[:k], alt) {
				continue
			}
			cand := append(append([]int{}, order[:k-1]...), alt)
			if diversify.LogDet(kernel, cand) > base+1e-9 {
				t.Fatalf("greedy step %d suboptimal: swap %v for %v gains", k, order[k-1], alt)
			}
		}
	}
}

func TestDPPKernelSymmetricPositiveDiagonal(t *testing.T) {
	inst := fixture(t, 1)[0]
	k := NewDPP().kernel(inst)
	for i := 0; i < k.Rows; i++ {
		if k.At(i, i) <= 0 {
			t.Fatal("non-positive kernel diagonal")
		}
		for j := 0; j < k.Cols; j++ {
			if math.Abs(k.At(i, j)-k.At(j, i)) > 1e-12 {
				t.Fatal("kernel not symmetric")
			}
		}
	}
}

func TestDPPScoresFullRanking(t *testing.T) {
	inst := fixture(t, 1)[0]
	s := checkScores(t, NewDPP(), inst)
	seen := map[float64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate greedy scores — not a full ranking")
		}
		seen[v] = true
	}
}

func TestSSDResidualShrinks(t *testing.T) {
	basis := [][]float64{{1, 0, 0}}
	v := []float64{1, 1, 0}
	r := residualNorm(v, basis)
	if math.Abs(r-1) > 1e-9 {
		t.Fatalf("residual norm %v, want 1", r)
	}
	if rn := residualNorm([]float64{1, 0, 0}, basis); rn > 1e-9 {
		t.Fatalf("in-span residual %v, want 0", rn)
	}
}

func TestSSDWindowSlides(t *testing.T) {
	inst := fixture(t, 1)[0]
	s := NewSSD()
	s.Window = 2
	checkScores(t, s, inst)
}

func TestPDGANTrainsAndScores(t *testing.T) {
	train := fixture(t, 20)
	m := NewPDGAN(8, 11)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, inst := range fixture(t, 3) {
		checkScores(t, m, inst)
	}
}

func TestDiversityStrengthRange(t *testing.T) {
	for _, inst := range fixture(t, 10) {
		w := diversityStrength(inst)
		if w < 0 || w > 1 {
			t.Fatalf("diversity strength %v", w)
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Property: every greedy re-ranker returns scores encoding a permutation.
func TestGreedyRerankersPermutationProperty(t *testing.T) {
	insts := fixture(t, 8)
	rers := []rerank.Reranker{NewMMR(), NewDPP(), NewSSD(), NewAdpMMR()}
	for _, inst := range insts {
		for _, r := range rers {
			order := rerank.Apply(r, inst)
			seen := map[int]bool{}
			for _, v := range order {
				if seen[v] {
					t.Fatalf("%s repeated item %d", r.Name(), v)
				}
				seen[v] = true
			}
			if len(order) != inst.L() {
				t.Fatalf("%s dropped items", r.Name())
			}
		}
	}
}

// Property: GreedyMAP returns distinct indices within range for random
// PSD kernels.
func TestGreedyMAPPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		b := mat.RandNormal(n, 3, 0, 1, rng)
		kernel := b.MatMul(b.T())
		for i := 0; i < n; i++ {
			kernel.Set(i, i, kernel.At(i, i)+0.2)
		}
		k := 1 + rng.Intn(n)
		order := diversify.GreedyMAP(kernel, k)
		if len(order) != k {
			return false
		}
		seen := map[int]bool{}
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
