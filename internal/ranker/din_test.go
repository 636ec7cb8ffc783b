package ranker

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

// tapeForward is DIN on the autodiff tape, the graph DIN.forward and
// DIN.backward replay by hand: it scores one (user, item) pair and returns
// a 1×1 logit.
func (m *DIN) tapeForward(t *nn.Tape, d *dataset.Dataset, user, item int) *nn.Node {
	xu := t.Constant(mat.RowVector(d.UserFeatures(user)))
	xv := t.Constant(mat.RowVector(d.ItemFeatures(item)))
	hist := d.Users[user].History
	if len(hist) > m.HistoryCap {
		hist = hist[len(hist)-m.HistoryCap:]
	}
	var pooled *nn.Node
	if len(hist) == 0 {
		pooled = t.Constant(mat.New(1, d.Cfg.ItemDim))
	} else {
		rows := make([]*nn.Node, len(hist))
		for i, h := range hist {
			rows[i] = t.Constant(mat.RowVector(d.ItemFeatures(h)))
		}
		histMat := t.ConcatRows(rows...) // H×qv
		// Attention unit: weight_i = MLP([x_h, x_v, x_h⊙x_v]).
		vRep := t.ConcatRows(repeat(xv, len(hist))...)
		attIn := t.ConcatCols(histMat, vRep, t.Mul(histMat, vRep))
		w := t.SoftmaxRows(t.Transpose(m.att.Forward(t, attIn))) // 1×H
		pooled = t.MatMul(w, histMat)                            // 1×qv
	}
	return m.head.Forward(t, t.ConcatCols(xu, xv, pooled))
}

// tapeNodes is the node count of one tapeForward and its loss at a full
// history: 34 + HistoryCap, 44 at the default cap.
func (m *DIN) tapeNodes() int { return 34 + m.HistoryCap }

func repeat(row *nn.Node, n int) []*nn.Node {
	out := make([]*nn.Node, n)
	for i := range out {
		out[i] = row
	}
	return out
}

// fitTape is DIN.Fit on the tape: the same examples in the same order,
// each a tapeForward, its BCE loss and Backward, then the clip and Adam.
func (m *DIN) fitTape(d *dataset.Dataset) {
	m.build(d)
	opt := nn.NewAdam(m.LR)
	rng := rand.New(rand.NewSource(m.Seed + 1))
	inter := d.RankerTrain
	t := nn.NewTapeCap(m.tapeNodes())
	for e := 0; e < m.Epochs; e++ {
		for _, i := range shuffled(len(inter), rng) {
			ex := inter[i]
			t.Reset()
			logit := m.tapeForward(t, d, ex.User, ex.Item)
			t.Backward(t.SigmoidBCE(logit, []float64{ex.Label}))
			m.ps.ClipGradNorm(5)
			opt.Step(m.ps.All())
		}
	}
}

// smallData generates a small dataset from cfg and cuts a few users'
// histories to lengths 0–3 (the generators give every user a full one).
func smallData(cfg dataset.Config) *dataset.Dataset {
	cfg.NumUsers, cfg.NumItems, cfg.Categories = 40, 100, 20
	cfg.RankerTrainPerUser, cfg.RerankRequests, cfg.TestRequests = 10, 10, 5
	d := dataset.MustGenerate(cfg)
	for u := 0; u < 4; u++ {
		d.Users[u].History = d.Users[u].History[:u]
	}
	return d
}

// fittedDIN fits DIN for one epoch on smallData(cfg).
func fittedDIN(t testing.TB, cfg dataset.Config) (*DIN, *dataset.Dataset) {
	t.Helper()
	d := smallData(cfg)
	din := NewDIN(cfg.Seed)
	din.Epochs = 1
	if err := din.Fit(d); err != nil {
		t.Fatal(err)
	}
	return din, d
}

// scoringCase is one (user, item) pair to score.
type scoringCase struct{ user, item int }

// everyCandidate lists every candidate of every pool, then every cut-short
// user against the first ten items.
func everyCandidate(d *dataset.Dataset) []scoringCase {
	var cs []scoringCase
	for _, pools := range [][]dataset.Pool{d.RerankPools, d.TestPools} {
		for _, p := range pools {
			for _, v := range p.Candidates {
				cs = append(cs, scoringCase{p.User, v})
			}
		}
	}
	for u := 0; u < 4; u++ {
		for v := 0; v < 10; v++ {
			cs = append(cs, scoringCase{u, v})
		}
	}
	return cs
}

// TestDINScoreMatchesTape: the tape-free Score returns the bits of the
// training graph's forward, on every candidate of every pool of a
// TaobaoLike and a MovieLensLike dataset, and on users with empty and short
// histories.
func TestDINScoreMatchesTape(t *testing.T) {
	for _, cfg := range []dataset.Config{dataset.TaobaoLike(11), dataset.MovieLensLike(12)} {
		din, d := fittedDIN(t, cfg)
		tp := nn.NewTapeCap(din.tapeNodes())
		for _, c := range everyCandidate(d) {
			tp.Reset()
			want := mat.Sigmoid(din.tapeForward(tp, d, c.user, c.item).Value.Data[0])
			if got := din.Score(d, c.user, c.item); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s user %d (history %d) item %d: Score %v, tape %v", cfg.Name, c.user, len(d.Users[c.user].History), c.item, got, want)
			}
		}
	}
}

// TestDINFitMatchesTape: after a three-epoch fit, every DIN parameter has
// the bits the tape-trained graph gives it, on TaobaoLike, MovieLensLike
// and AppStoreLike data whose cut-short users train with empty and short
// histories.
func TestDINFitMatchesTape(t *testing.T) {
	for _, cfg := range []dataset.Config{dataset.TaobaoLike(31), dataset.MovieLensLike(32), dataset.AppStoreLike(33)} {
		d := smallData(cfg)
		got, want := NewDIN(cfg.Seed), NewDIN(cfg.Seed)
		if err := got.Fit(d); err != nil {
			t.Fatal(err)
		}
		want.fitTape(d)
		wp := want.ps.All()
		for i, p := range got.ps.All() {
			for j, v := range p.Value.Data {
				if w := wp[i].Value.Data[j]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: %s[%d] = %v, tape %v", cfg.Name, p.Name, j, v, w)
				}
			}
		}
	}
}

// TestDINScoreConcurrent: four goroutines scoring the same pools at once
// get the serial scores' bits, from DIN and from the other two initial
// rankers, whose Score the harness also calls from every core.
func TestDINScoreConcurrent(t *testing.T) {
	din, d := fittedDIN(t, dataset.TaobaoLike(13))
	svm, lm := NewSVMRank(13), NewLambdaMART()
	for _, r := range []Ranker{svm, lm} {
		if err := r.Fit(d); err != nil {
			t.Fatal(err)
		}
	}
	cs := everyCandidate(d)
	for _, r := range []Ranker{din, svm, lm} {
		want := make([]float64, len(cs))
		for i, c := range cs {
			want[i] = r.Score(d, c.user, c.item)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, c := range cs {
					if got := r.Score(d, c.user, c.item); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s goroutine %d user %d item %d: %v, serial %v", r.Name(), g, c.user, c.item, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestDINScoreAllocs: once its scratch is pooled, a score allocates
// nothing, at a full history and an empty one.
func TestDINScoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not repeat under the race detector")
	}
	din, d := fittedDIN(t, dataset.TaobaoLike(14))
	for _, user := range []int{0, 2, 10} {
		din.Score(d, user, 5)
		if n := testing.AllocsPerRun(200, func() { din.Score(d, user, 5) }); n != 0 {
			t.Errorf("user %d (history %d): %v allocations per score, want 0", user, len(d.Users[user].History), n)
		}
	}
}

var scoreSink float64

// BenchmarkDINScore scores every candidate of the training pools: the
// initial lists' cost per candidate.
func BenchmarkDINScore(b *testing.B) {
	din, d := fittedDIN(b, dataset.TaobaoLike(15))
	var cs []scoringCase
	for _, p := range d.RerankPools {
		for _, v := range p.Candidates {
			cs = append(cs, scoringCase{p.User, v})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cs[i%len(cs)]
		scoreSink = din.Score(d, c.user, c.item)
	}
}

// BenchmarkDINFit is one three-epoch fit on the test-sized dataset: the
// forward, its backward and Adam.
func BenchmarkDINFit(b *testing.B) {
	cfg := dataset.TaobaoLike(16)
	cfg.NumUsers, cfg.NumItems, cfg.Categories = 40, 100, 20
	cfg.RankerTrainPerUser, cfg.RerankRequests, cfg.TestRequests = 10, 10, 5
	d := dataset.MustGenerate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewDIN(16).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}
