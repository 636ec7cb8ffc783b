package ranker

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

// fittedDIN generates a small dataset from cfg, cuts a few users' histories
// to lengths 0–3 (the generators give every user a full one), and fits DIN
// on it for one epoch.
func fittedDIN(t testing.TB, cfg dataset.Config) (*DIN, *dataset.Dataset) {
	t.Helper()
	cfg.NumUsers, cfg.NumItems, cfg.Categories = 40, 100, 20
	cfg.RankerTrainPerUser, cfg.RerankRequests, cfg.TestRequests = 10, 10, 5
	d := dataset.MustGenerate(cfg)
	for u := 0; u < 4; u++ {
		d.Users[u].History = d.Users[u].History[:u]
	}
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
			want := mat.Sigmoid(din.forward(tp, d, c.user, c.item).Value.Data[0])
			if got := din.Score(d, c.user, c.item); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s user %d (history %d) item %d: Score %v, tape %v", cfg.Name, c.user, len(d.Users[c.user].History), c.item, got, want)
			}
		}
	}
}

// TestDINScoreConcurrent: four goroutines scoring the same pools at once
// get the serial scores' bits.
func TestDINScoreConcurrent(t *testing.T) {
	din, d := fittedDIN(t, dataset.TaobaoLike(13))
	cs := everyCandidate(d)
	want := make([]float64, len(cs))
	for i, c := range cs {
		want[i] = din.Score(d, c.user, c.item)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range cs {
				if got := din.Score(d, c.user, c.item); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d user %d item %d: %v, serial %v", g, c.user, c.item, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
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
// tape forward, its backward and Adam.
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
