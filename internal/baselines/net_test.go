package baselines

import (
	"sync"
	"testing"

	"repro/internal/rerank"
)

// TestUntrainedScoresConcurrent: an untrained model scored from several
// goroutines at once — as the engine's scoring pool does with an adapted
// baseline — builds one parameter set, so every goroutine reads the scores
// a lone caller of a fresh model reads, bit for bit. Run under -race.
func TestUntrainedScoresConcurrent(t *testing.T) {
	inst := fixture(t, 1)[0]
	for _, newModel := range []func() rerank.Reranker{
		func() rerank.Reranker { return NewDLCM(8, 1) },
		func() rerank.Reranker { return NewPRM(8, 2) },
		func() rerank.Reranker { return NewSetRank(8, 3) },
		func() rerank.Reranker { return NewSRGA(8, 4) },
		func() rerank.Reranker { return NewDESA(8, 5) },
		func() rerank.Reranker { return NewSeq2Slate(8, 6) },
		func() rerank.Reranker { return NewPDGAN(8, 7) },
	} {
		want := newModel().Scores(inst)
		r := newModel()
		got := make([][]float64, 8)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = r.Scores(inst)
			}()
		}
		close(start)
		wg.Wait()
		for g, s := range got {
			for i := range want {
				if s[i] != want[i] {
					t.Fatalf("%s: goroutine %d score %d = %v, a lone caller reads %v", r.Name(), g, i, s[i], want[i])
				}
			}
		}
	}
}

var scoresSink []float64

// BenchmarkNetScores times one inference pass of a built listwise net (PRM,
// hidden 8) on an 8-item fixture list, tape included.
func BenchmarkNetScores(b *testing.B) {
	inst := fixture(b, 1)[0]
	m := NewPRM(8, 2)
	m.Scores(inst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoresSink = m.Scores(inst)
	}
}
