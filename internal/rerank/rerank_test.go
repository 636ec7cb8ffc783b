package rerank

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

func testInstances(t *testing.T, n int, withLabels bool) []*Instance {
	t.Helper()
	cfg := dataset.TaobaoLike(11)
	cfg.NumUsers = 20
	cfg.NumItems = 60
	cfg.Categories = 15
	cfg.RerankRequests = n
	cfg.TestRequests = 1
	cfg.ListLen = 6
	cfg.PoolSize = 10
	d := dataset.MustGenerate(cfg)
	rng := rand.New(rand.NewSource(5))
	var out []*Instance
	for i := 0; i < n; i++ {
		p := d.RerankPools[i%len(d.RerankPools)]
		items := append([]int(nil), p.Candidates[:cfg.ListLen]...)
		req := dataset.Request{User: p.User, Items: items, InitScores: descending(len(items))}
		if withLabels {
			req.Clicks = make([]bool, len(items))
			for k := range req.Clicks {
				req.Clicks[k] = rng.Float64() < d.Relevance(p.User, items[k])
			}
		}
		out = append(out, NewInstance(d, req, rng))
	}
	return out
}

func descending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i)
	}
	return s
}

func TestOrderByScores(t *testing.T) {
	items := []int{10, 20, 30}
	got := OrderByScores(items, []float64{0.1, 0.9, 0.5})
	want := []int{20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderByScores = %v", got)
		}
	}
	// Stable on ties: original order preserved.
	tie := OrderByScores(items, []float64{1, 1, 1})
	for i, v := range items {
		if tie[i] != v {
			t.Fatal("tie order not stable")
		}
	}
}

// sliceStableOrder is OrderByScores as it was first written, on
// sort.SliceStable: the reference the reflection-free ordering is held to.
func sliceStableOrder(items []int, scores []float64) []int {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	out := make([]int, len(items))
	for i, j := range idx {
		out[i] = items[j]
	}
	return out
}

// TestOrderByScoresMatchesSliceStable: on random score vectors thick with
// ties, NaN, ±Inf and −0 — where a comparison that is not a strict weak order
// makes the answer depend on the algorithm's every step — OrderByScores ranks
// exactly as the sort.SliceStable reference does. Lengths cross the stable
// sort's 20-element insertion blocks and several merge levels.
func TestOrderByScoresMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.5, 1}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(90)
		items := make([]int, n)
		scores := make([]float64, n)
		for i := range scores {
			items[i] = 1000 + i
			switch rng.Intn(3) {
			case 0:
				scores[i] = specials[rng.Intn(len(specials))]
			case 1:
				scores[i] = float64(rng.Intn(4)) // ties
			default:
				scores[i] = rng.NormFloat64()
			}
		}
		got, want := OrderByScores(items, scores), sliceStableOrder(items, scores)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, scores %v:\n got %v\nwant %v", trial, scores, got, want)
		}
	}
}

// BenchmarkOrderByScores orders a 20-item list, the serving path's length.
func BenchmarkOrderByScores(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	items, scores := make([]int, 20), make([]float64, 20)
	for i := range items {
		items[i], scores[i] = 640+i, rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrderByScores(items, scores)
	}
}

func TestIdentityReranker(t *testing.T) {
	inst := testInstances(t, 1, false)[0]
	id := Identity{}
	got := Apply(id, inst)
	for i, v := range inst.Items {
		if got[i] != v {
			t.Fatal("Identity changed the order")
		}
	}
	// Scores must be a copy, not an alias.
	s := id.Scores(inst)
	s[0] = -999
	if inst.InitScores[0] == -999 {
		t.Fatal("Identity.Scores aliases InitScores")
	}
}

func TestInstanceGeometry(t *testing.T) {
	inst := testInstances(t, 1, true)[0]
	lf := inst.ListFeatures()
	if lf.Rows != inst.L() || lf.Cols != inst.FeatureDim() {
		t.Fatalf("ListFeatures %dx%d", lf.Rows, lf.Cols)
	}
	// Last column is the initial score.
	for i := 0; i < inst.L(); i++ {
		if lf.At(i, lf.Cols-1) != inst.InitScores[i] {
			t.Fatal("init score column misplaced")
		}
	}
	// Topic-coverage block matches.
	qu := len(inst.UserFeat)
	qv := len(inst.ItemFeat(inst.Items[0]))
	for j := 0; j < inst.M; j++ {
		if lf.At(0, qu+qv+j) != inst.Cover[0][j] {
			t.Fatal("coverage block misplaced")
		}
	}
}

func TestTopicSeqFeatures(t *testing.T) {
	inst := testInstances(t, 1, false)[0]
	for j := 0; j < inst.M; j++ {
		seq := inst.TopicSeqFeatures(j, 3)
		if seq.Rows > 3 {
			t.Fatalf("topic %d sequence longer than D", j)
		}
		if seq.Rows > 0 {
			qu := len(inst.UserFeat)
			for k := 0; k < qu; k++ {
				if seq.At(0, k) != inst.UserFeat[k] {
					t.Fatal("user features not prefixed on sequence rows")
				}
			}
		}
	}
}

func TestMarginalDiversityConsistency(t *testing.T) {
	inst := testInstances(t, 1, false)[0]
	md := inst.MarginalDiversity()
	if len(md) != inst.L() {
		t.Fatalf("marginal diversity length %d", len(md))
	}
	for _, row := range md {
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("marginal diversity %v out of range", v)
			}
		}
	}
}

// linearModel is a minimal ListwiseModel for trainer tests: one dense layer
// over the instance features.
type linearModel struct {
	ps *nn.ParamSet
	d  *nn.Dense
}

func newLinearModel(featDim int, seed int64) *linearModel {
	ps := nn.NewParamSet()
	return &linearModel{
		ps: ps,
		d:  nn.NewDense(ps, "lin", featDim, 1, nn.Linear, rand.New(rand.NewSource(seed))),
	}
}

func (m *linearModel) Params() *nn.ParamSet { return m.ps }
func (m *linearModel) Loss(t *nn.Tape, inst *Instance, _ bool) *nn.Node {
	return t.SigmoidBCE(m.d.Forward(t, t.Constant(inst.ListFeatures())), inst.Labels)
}

func TestTrainListwiseReducesLoss(t *testing.T) {
	train := testInstances(t, 30, true)
	m := newLinearModel(train[0].FeatureDim(), 3)
	rec := &recordingObserver{}
	cfg := TrainConfig{Epochs: 10, LR: 0.02, BatchSize: 4, ClipNorm: 5, Seed: 3, Observer: rec}
	if _, err := TrainListwise(m, train, cfg); err != nil {
		t.Fatal(err)
	}
	first, last := rec.got[0].Loss, rec.got[len(rec.got)-1].Loss
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestTrainListwiseRejectsUnlabeled(t *testing.T) {
	train := testInstances(t, 2, false)
	m := newLinearModel(train[0].FeatureDim(), 4)
	if _, err := TrainListwise(m, train, DefaultTrainConfig(1)); err == nil {
		t.Fatal("training on unlabeled instances should error")
	}
}

func TestScoreWithSigmoidRange(t *testing.T) {
	inst := testInstances(t, 1, false)[0]
	m := NewNet(5, func(ps *nn.ParamSet, inst *Instance, rng *rand.Rand) LogitsFunc {
		d := nn.NewDense(ps, "lin", inst.FeatureDim(), 1, nn.Linear, rng)
		return func(t *nn.Tape, inst *Instance, _ bool) *nn.Node {
			return d.Forward(t, t.Constant(inst.ListFeatures()))
		}
	})
	scores := m.Scores(inst)
	if len(scores) != inst.L() {
		t.Fatalf("scores length %d", len(scores))
	}
	for _, s := range scores {
		if s <= 0 || s >= 1 || math.IsNaN(s) {
			t.Fatalf("sigmoid score %v out of (0,1)", s)
		}
	}
}

func TestHistoryPreferenceIsDistribution(t *testing.T) {
	inst := testInstances(t, 1, false)[0]
	p := inst.HistoryPreference()
	if math.Abs(mat.SumVec(p)-1) > 1e-9 {
		t.Fatalf("history preference sums to %v", mat.SumVec(p))
	}
}
