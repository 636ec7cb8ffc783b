package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nn"
	"repro/internal/rerank"
)

// perturb moves every parameter off its initial value. Fresh models have
// zero biases and unit layer-norm gains, which would hide a forward that
// dropped or misplaced one.
func perturb(m *Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range m.ps.All() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.3 * rng.NormFloat64()
		}
	}
}

// forwardCases is batchFixture (lengths 8, 5, 3, 8, 1, one empty topic
// sequence) plus the shapes the serving path meets: lists of 1, 20, 30 and
// 64 items, a user with no behavior history at all, and one whose every
// topic sequence is longer than D.
func forwardCases(t *testing.T) []*rerank.Instance {
	t.Helper()
	cases, _ := batchFixture(t)
	long, _ := fixtureLen(t, 4, 91, 64)
	cases = append(cases, truncated(long[0], 1), truncated(long[1], 20), truncated(long[2], 30), long[3])

	noHistory := *long[0]
	noHistory.TopicSeqs = make([][]int, noHistory.M)
	cases = append(cases, truncated(&noHistory, 20))

	return append(cases, truncated(fullHistory(long[1]), 20))
}

// TestForwardMatchesLogits is the inference-vs-training half of the numerics
// contract: the tape-free forward and logits(train=false) compute the same
// function with a different summation order, so for every model variant
// their logits agree to 1e-12 — and no closer is promised.
func TestForwardMatchesLogits(t *testing.T) {
	cases := forwardCases(t)
	_, d := batchFixture(t)
	ctx := context.Background()
	for vi, m := range modelVariants(d) {
		perturb(m, int64(vi))
		if m.Cfg.UseDiversity && len(cases[len(cases)-1].TopicSeqs[0]) <= m.Cfg.D {
			t.Fatalf("%s: full-history case does not exceed D = %d", m.Name(), m.Cfg.D)
		}
		tape := nn.NewTape()
		for ci, inst := range cases {
			tape.Reset()
			want := m.logits(tape, inst, false).Value.Data
			got, _, err := m.forward(ctx, new(arena), inst, nil)
			if err != nil {
				t.Fatalf("%s case %d: %v", m.Name(), ci, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s case %d: %d logits, want %d", m.Name(), ci, len(got), len(want))
			}
			for i := range want {
				if diff := math.Abs(got[i] - want[i]); !(diff <= 1e-12) {
					t.Fatalf("%s case %d (L=%d) item %d: forward %v, logits %v, |Δ| = %g > 1e-12",
						m.Name(), ci, inst.L(), i, got[i], want[i], diff)
				}
			}
		}
	}
}

// TestInferenceAllocs pins the steady-state allocation count of the
// inference entry points on a 20-item list: what is left is what the caller
// keeps (score slices, the state and its θ̂) and the diversity function's
// table — no scratch.
func TestInferenceAllocs(t *testing.T) {
	long, d := fixtureLen(t, 2, 91, 20)
	m := New(testConfig(d, 70))
	ctx := context.Background()
	one := long[:1]
	_, states, err := m.ScoreBatchStates(ctx, one, nil) // warm-up: sizes the pooled arena
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		call func()
	}{
		{"ScoreBatch of one", 8, func() { _, _ = m.ScoreBatch(ctx, one) }},
		{"ScoreBatchStates with its state", 6, func() { _, _, _ = m.ScoreBatchStates(ctx, one, states) }},
		{"EncodeUserState", 3, func() { _, _ = m.EncodeUserState(ctx, one[0]) }},
	} {
		if n := testing.AllocsPerRun(100, tc.call); n > tc.max {
			t.Errorf("%s: %v allocations per call, want ≤ %v", tc.name, n, tc.max)
		}
	}
}

// TestArenaNeverEscapes is the aliasing guarantee: scores and θ̂ handed to a
// caller are fresh slices, not views of the pooled arena, so they survive
// any number of later calls — other users, list lengths that grow the arena
// (8 → 64) and reuse it (→ 8), serially and from eight goroutines at once —
// and concurrent calls return exactly what serial ones do.
func TestArenaNeverEscapes(t *testing.T) {
	long, d := fixtureLen(t, 6, 91, 64)
	m := New(testConfig(d, 70))
	ctx := context.Background()

	scoresA, usedA, err := m.ScoreBatchStates(ctx, []*rerank.Instance{truncated(long[0], 8)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stateA, err := m.EncodeUserState(ctx, long[0])
	if err != nil {
		t.Fatal(err)
	}
	keptScores := append([]float64(nil), scoresA[0]...)
	keptTheta := append([]float64(nil), usedA[0].Theta()...)
	unchanged := func(when string) {
		t.Helper()
		assertBitwise(t, "retained scores "+when, keptScores, scoresA[0])
		assertBitwise(t, "retained θ̂ (scored) "+when, keptTheta, usedA[0].Theta())
		assertBitwise(t, "retained θ̂ (encoded) "+when, keptTheta, stateA.Theta())
	}

	// 100 further calls: other users, lengths 8 → 64 → 8.
	others := make([]*rerank.Instance, 100)
	for i := range others {
		l := 8 + 2*i
		if l > 64 {
			l = max(8, 64-2*(i-28))
		}
		others[i] = truncated(long[1+i%5], l)
	}
	serial := make([][]float64, len(others))
	for i, inst := range others {
		if serial[i], err = m.Score(ctx, inst); err != nil {
			t.Fatal(err)
		}
		if _, err = m.EncodeUserState(ctx, inst); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("after 100 serial calls")

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range others {
				i := (k + 13*g) % len(others)
				got, err := m.Score(ctx, others[i])
				if err != nil {
					errs <- err
					return
				}
				for j := range got {
					if got[j] != serial[i][j] {
						errs <- fmt.Errorf("goroutine %d: call %d item %d = %v, serial %v", g, i, j, got[j], serial[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	unchanged("after 800 concurrent calls")
}

// flipCtx is a context that reports context.Canceled from its n-th Err call
// on: a cancellation that lands between two recurrence steps.
type flipCtx struct {
	context.Context
	left atomic.Int64
}

func (c *flipCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancellationBetweenSteps: the forward checks its context between
// recurrence steps, so a cancellation arriving mid-pass stops it wherever it
// lands — in the listwise pass, the preference pass or before the head.
func TestCancellationBetweenSteps(t *testing.T) {
	insts, d := batchFixture(t)
	m := New(testConfig(d, 75))
	// One uncancelled pass counts the checks a full batch makes.
	counter := &flipCtx{Context: context.Background()}
	counter.left.Store(math.MaxInt64)
	if _, err := m.ScoreBatch(counter, insts); err != nil {
		t.Fatal(err)
	}
	checks := int(math.MaxInt64 - counter.left.Load())
	if checks < 2*insts[0].L() {
		t.Fatalf("a batch made only %d context checks; the recurrences are not checking between steps", checks)
	}
	for n := 0; n < checks; n++ {
		ctx := &flipCtx{Context: context.Background()}
		ctx.left.Store(int64(n))
		if _, err := m.ScoreBatch(ctx, insts); err != context.Canceled {
			t.Fatalf("context cancelled at check %d of %d: err = %v, want context.Canceled", n, checks, err)
		}
	}
	ctx := &flipCtx{Context: context.Background()}
	ctx.left.Store(int64(checks))
	if _, err := m.ScoreBatch(ctx, insts); err != nil {
		t.Fatalf("context cancelled only after the last check: err = %v, want scores", err)
	}
}
