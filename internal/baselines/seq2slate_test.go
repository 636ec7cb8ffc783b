package baselines

import (
	"math/rand"
	"testing"

	"repro/internal/rerank"
)

func TestSeq2SlateTrainsAndScores(t *testing.T) {
	train := fixture(t, 20)
	m := NewSeq2Slate(8, 3)
	m.TrainCfg.Epochs = 2
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, inst := range fixture(t, 3) {
		s := checkScores(t, m, inst)
		// Greedy decoding yields a strict ranking.
		seen := map[float64]bool{}
		for _, v := range s {
			if seen[v] {
				t.Fatal("duplicate pointer scores")
			}
			seen[v] = true
		}
	}
}

func TestSeq2SlateLearnsToFrontloadClicks(t *testing.T) {
	// With consistent click patterns, the decoder should learn to point at
	// clicked items before unclicked ones on the training data.
	train := fixture(t, 30)
	m := NewSeq2Slate(8, 5)
	m.TrainCfg.Epochs = 6
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	var clickedRank, unclickedRank, nc, nu float64
	for _, inst := range train {
		order := rerank.Apply(m, inst)
		pos := map[int]int{}
		for i, v := range order {
			pos[v] = i
		}
		for i, v := range inst.Items {
			if inst.Labels[i] > 0.5 {
				clickedRank += float64(pos[v])
				nc++
			} else {
				unclickedRank += float64(pos[v])
				nu++
			}
		}
	}
	if nc == 0 || nu == 0 {
		t.Skip("degenerate click pattern")
	}
	if clickedRank/nc >= unclickedRank/nu {
		t.Fatalf("clicked items not front-loaded: clicked mean rank %.2f vs unclicked %.2f",
			clickedRank/nc, unclickedRank/nu)
	}
}

func TestTargetOrder(t *testing.T) {
	inst := fixture(t, 1)[0]
	inst.Labels = []float64{0, 1, 0, 1, 0, 0, 0, 0}
	order := targetOrder(inst)
	if order[0] != 1 || order[1] != 3 {
		t.Fatalf("clicked items should lead: %v", order)
	}
	// Stability within groups: unclicked keep initial order.
	if order[2] != 0 || order[3] != 2 {
		t.Fatalf("unclicked tail not stable: %v", order)
	}
}

func TestSeq2SlateDecodePermutation(t *testing.T) {
	inst := fixture(t, 1)[0]
	m := NewSeq2Slate(8, rand.Int63())
	m.build(inst.FeatureDim())
	order := m.decode(inst)
	if len(order) != inst.L() {
		t.Fatalf("decode length %d", len(order))
	}
	seen := map[int]bool{}
	for _, i := range order {
		if seen[i] {
			t.Fatal("decode repeated an index")
		}
		seen[i] = true
	}
}
