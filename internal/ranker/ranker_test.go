package ranker

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

func testData(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.TaobaoLike(seed)
	cfg.NumUsers = 40
	cfg.NumItems = 100
	cfg.Categories = 20
	cfg.RankerTrainPerUser = 10
	cfg.RerankRequests = 10
	cfg.TestRequests = 5
	return dataset.MustGenerate(cfg)
}

// rankingQuality measures how well the ranker orders random item pairs by
// true relevance (pairwise accuracy over the ground truth).
func rankingQuality(d *dataset.Dataset, r Ranker, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	correct, total := 0, 0
	for i := 0; i < 2000; i++ {
		u := rng.Intn(len(d.Users))
		a, b := rng.Intn(len(d.Items)), rng.Intn(len(d.Items))
		ra, rb := d.Relevance(u, a), d.Relevance(u, b)
		// Near-ties are unresolvable from noisy features at this training
		// size; quality is measured on clearly ordered pairs.
		if ra-rb < 0.15 && rb-ra < 0.15 {
			continue
		}
		sa, sb := r.Score(d, u, a), r.Score(d, u, b)
		if (ra > rb) == (sa > sb) {
			correct++
		}
		total++
	}
	return float64(correct) / float64(total)
}

func TestDINLearnsRelevance(t *testing.T) {
	d := testData(t, 1)
	din := NewDIN(1)
	if err := din.Fit(d); err != nil {
		t.Fatal(err)
	}
	if q := rankingQuality(d, din, 2); q < 0.62 {
		t.Fatalf("DIN pairwise accuracy %v, want > 0.62", q)
	}
}

// TestDINTapeNodesBoundsGraph holds DIN's tape size to its graph: a
// training pass over a user with a full history records exactly
// tapeNodes() nodes.
func TestDINTapeNodesBoundsGraph(t *testing.T) {
	d := testData(t, 3)
	din := NewDIN(1)
	din.build(d)
	user := -1
	for u := range d.Users {
		if len(d.Users[u].History) >= din.HistoryCap {
			user = u
			break
		}
	}
	if user < 0 {
		t.Fatal("no user with a full history")
	}
	tp := nn.NewTape()
	tp.SigmoidBCE(din.tapeForward(tp, d, user, 0), []float64{1})
	if got := tp.NumNodes(); got != din.tapeNodes() {
		t.Fatalf("full-history pass records %d nodes, tapeNodes() = %d", got, din.tapeNodes())
	}
}

func TestDINScoreBeforeFitPanics(t *testing.T) {
	d := testData(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Score before Fit did not panic")
		}
	}()
	NewDIN(1).Score(d, 0, 0)
}

func TestSVMRankLearnsRelevance(t *testing.T) {
	d := testData(t, 3)
	svm := NewSVMRank(3)
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	if q := rankingQuality(d, svm, 4); q < 0.60 {
		t.Fatalf("SVMRank pairwise accuracy %v, want > 0.60", q)
	}
}

func TestLambdaMARTLearnsRelevance(t *testing.T) {
	d := testData(t, 5)
	lm := NewLambdaMART()
	if err := lm.Fit(d); err != nil {
		t.Fatal(err)
	}
	if q := rankingQuality(d, lm, 6); q < 0.60 {
		t.Fatalf("LambdaMART pairwise accuracy %v, want > 0.60", q)
	}
}

func TestRankPool(t *testing.T) {
	d := testData(t, 7)
	din := NewDIN(7)
	if err := din.Fit(d); err != nil {
		t.Fatal(err)
	}
	pool := d.RerankPools[0]
	items, scores := RankPool(din, d, pool, 8)
	if len(items) != 8 || len(scores) != 8 {
		t.Fatalf("RankPool returned %d items, %d scores", len(items), len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-12 {
			t.Fatal("RankPool scores not descending")
		}
	}
	// All items must come from the pool.
	in := map[int]bool{}
	for _, v := range pool.Candidates {
		in[v] = true
	}
	for _, v := range items {
		if !in[v] {
			t.Fatalf("RankPool returned item %d outside the pool", v)
		}
	}
	// Requesting more than available truncates gracefully.
	items2, _ := RankPool(din, d, pool, len(pool.Candidates)+10)
	if len(items2) != len(pool.Candidates) {
		t.Fatalf("oversized RankPool gave %d items", len(items2))
	}
}

func TestRegTreePrediction(t *testing.T) {
	// A hand-built stump must route correctly.
	tree := &regTree{
		feature:   0,
		threshold: 0.5,
		left:      &regTree{leaf: true, value: -1},
		right:     &regTree{leaf: true, value: 2},
	}
	if tree.predict([]float64{0.2}) != -1 || tree.predict([]float64{0.9}) != 2 {
		t.Fatal("stump misroutes")
	}
}

func TestGrowTreeFitsStep(t *testing.T) {
	// A step function in one feature should be recovered by a depth-1 tree
	// trained on unit hessians.
	var feats [][]float64
	var grad, hess []float64
	for i := 0; i < 100; i++ {
		x := float64(i) / 100
		feats = append(feats, []float64{x})
		g := -1.0
		if x > 0.5 {
			g = 1.0
		}
		grad = append(grad, g)
		hess = append(hess, 1.0)
	}
	tree := growTree(feats, grad, hess, 2, 5, 0.01)
	if v := tree.predict([]float64{0.1}); v > -0.8 {
		t.Fatalf("left leaf %v, want ≈ -1", v)
	}
	if v := tree.predict([]float64{0.9}); v < 0.8 {
		t.Fatalf("right leaf %v, want ≈ +1", v)
	}
}

func TestGrowTreeConstantTarget(t *testing.T) {
	feats := [][]float64{{1}, {2}, {3}, {4}}
	grad := []float64{1, 1, 1, 1}
	hess := []float64{1, 1, 1, 1}
	tree := growTree(feats, grad, hess, 3, 1, 1)
	// No split gain on constant targets → single leaf with Newton value.
	if !tree.leaf {
		t.Fatal("constant target should yield a leaf")
	}
	if v := tree.value; v < 0.7 || v > 0.9 { // 4/(4+1)
		t.Fatalf("leaf value %v", v)
	}
}

func TestGroupByUserDeterministic(t *testing.T) {
	inter := []dataset.Interaction{
		{User: 3, Item: 1}, {User: 1, Item: 2}, {User: 3, Item: 3}, {User: 2, Item: 4},
	}
	groups := groupByUser(inter)
	if len(groups) != 3 {
		t.Fatalf("got %d groups", len(groups))
	}
	if groups[0][0].User != 1 || groups[1][0].User != 2 || groups[2][0].User != 3 {
		t.Fatal("groups not sorted by user")
	}
	if len(groups[2]) != 2 {
		t.Fatal("user 3 should have 2 interactions")
	}
}
