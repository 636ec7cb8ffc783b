package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rerank"
)

// truncated shallow-copies an instance down to its first l items, giving
// the batch fixtures heterogeneous list lengths.
func truncated(inst *rerank.Instance, l int) *rerank.Instance {
	cp := *inst
	cp.Items = inst.Items[:l]
	cp.InitScores = inst.InitScores[:l]
	cp.Cover = inst.Cover[:l]
	if inst.Labels != nil {
		cp.Labels = inst.Labels[:l]
	}
	if inst.Bids != nil {
		cp.Bids = inst.Bids[:l]
	}
	return &cp
}

// batchFixture builds a batch with mixed list lengths (8, 5, 3, 8, 1) and
// at least one empty per-topic behavior sequence, so mixed lengths in one
// batch and the zero-state path are both exercised.
func batchFixture(t *testing.T) ([]*rerank.Instance, *dataset.Dataset) {
	t.Helper()
	insts, d := fixture(t, 6, 91)
	out := []*rerank.Instance{
		insts[0],
		truncated(insts[1], 5),
		truncated(insts[2], 3),
		insts[3],
		truncated(insts[4], 1),
	}
	seqs := append([][]int(nil), out[2].TopicSeqs...)
	seqs[0] = nil
	out[2].TopicSeqs = seqs
	return out, d
}

func modelVariants(d *dataset.Dataset) []*Model {
	variants := []func(*Config){
		nil,
		func(c *Config) { c.Output = Deterministic },
		func(c *Config) { c.UseDiversity = false },
		func(c *Config) { c.Agg = MeanAgg },
		func(c *Config) { c.Encoder = TransformerEncoder },
	}
	out := make([]*Model, 0, len(variants))
	for i, mutate := range variants {
		cfg := testConfig(d, int64(70+i))
		if mutate != nil {
			mutate(&cfg)
		}
		out = append(out, New(cfg))
	}
	return out
}

// TestScoreBatchBitwiseEqualsSingle is the core equivalence guarantee: for
// every model variant, Score (batch of one) and ScoreBatch (heterogeneous
// batch) must be bitwise identical to the legacy Scores path.
func TestScoreBatchBitwiseEqualsSingle(t *testing.T) {
	insts, d := batchFixture(t)
	ctx := context.Background()
	for _, m := range modelVariants(d) {
		want := make([][]float64, len(insts))
		for i, inst := range insts {
			want[i] = m.Scores(inst)
		}
		for i, inst := range insts {
			got, err := m.Score(ctx, inst)
			if err != nil {
				t.Fatalf("%s: Score: %v", m.Name(), err)
			}
			assertBitwise(t, m.Name()+" batch-of-1", want[i], got)
		}
		got, err := m.ScoreBatch(ctx, insts)
		if err != nil {
			t.Fatalf("%s: ScoreBatch: %v", m.Name(), err)
		}
		if len(got) != len(insts) {
			t.Fatalf("%s: %d results for %d instances", m.Name(), len(got), len(insts))
		}
		for i := range insts {
			assertBitwise(t, m.Name()+" batched", want[i], got[i])
		}
	}
}

func assertBitwise(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: score[%d] = %v, want exactly %v", label, i, got[i], want[i])
		}
	}
}

// TestScoreBatchCancellation: an already-canceled context must stop the
// work before any scoring happens.
func TestScoreBatchCancellation(t *testing.T) {
	insts, d := batchFixture(t)
	m := New(testConfig(d, 75))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ScoreBatch(ctx, insts); err != context.Canceled {
		t.Fatalf("ScoreBatch on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := m.Score(ctx, insts[0]); err != context.Canceled {
		t.Fatalf("Score on canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestScoreBatchConcurrent hammers the pooled-arena path from many
// goroutines (run with -race): results must stay bitwise identical.
func TestScoreBatchConcurrent(t *testing.T) {
	insts, d := batchFixture(t)
	m := New(testConfig(d, 76))
	want := make([][]float64, len(insts))
	for i, inst := range insts {
		want[i] = m.Scores(inst)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				got, err := m.ScoreBatch(ctx, insts)
				if err != nil {
					errs <- err
					return
				}
				for i := range insts {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							errs <- &mismatchErr{i, j}
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchErr struct{ i, j int }

func (e *mismatchErr) Error() string {
	return "concurrent ScoreBatch diverged from single-path scores"
}
