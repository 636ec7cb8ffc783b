package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rerank"
)

// benchFixture is the geometry the serving benchmark issues: the TaobaoLike
// dimensions (q_u 13, q_v 8, m 5), 64 distinct instances of 20 items, the
// default RAPID-pro model at hidden 16. The instances carry clicks, so
// labels, for the training benchmark; clicks draw from an RNG of their own,
// leaving the scoring inputs what they were without them.
func benchFixture(b testing.TB) (*Model, []*rerank.Instance) {
	b.Helper()
	cfg := dataset.TaobaoLike(1).Scaled(0.1)
	d := dataset.MustGenerate(cfg)
	rng, clickRNG := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(5))
	insts := make([]*rerank.Instance, 64)
	for i := range insts {
		pool := d.RerankPools[i%len(d.RerankPools)]
		items := pool.Candidates[:cfg.ListLen]
		scores := make([]float64, len(items))
		clicks := make([]bool, len(items))
		for k := range scores {
			scores[k] = rng.Float64()
			clicks[k] = clickRNG.Float64() < 0.2
		}
		req := dataset.Request{User: pool.User, Items: items, InitScores: scores, Clicks: clicks}
		insts[i] = rerank.NewInstance(d, req, rng)
	}
	return New(DefaultConfig(cfg.UserDim, cfg.ItemDim, d.M(), 1)), insts
}

var benchSink [][]float64

// BenchmarkScoreBatch1 is the cold single-list call: preference pass,
// listwise pass and head.
func BenchmarkScoreBatch1(b *testing.B) {
	m, insts := benchFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(insts)
		benchSink, _ = m.ScoreBatch(ctx, insts[k:k+1])
	}
}

// BenchmarkScoreWarm1 is the repeat-user call: the encoded state supplied,
// so the preference pass is skipped.
func BenchmarkScoreWarm1(b *testing.B) {
	m, insts := benchFixture(b)
	ctx := context.Background()
	_, states, err := m.ScoreBatchStates(ctx, insts, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(insts)
		benchSink, _, _ = m.ScoreBatchStates(ctx, insts[k:k+1], states[k:k+1])
	}
}

// BenchmarkScoreBatch16 scores 16 lists per call; ns/op divided by 16 is the
// per-list cost to hold against BenchmarkScoreBatch1.
func BenchmarkScoreBatch16(b *testing.B) {
	m, insts := benchFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 16) % len(insts)
		benchSink, _ = m.ScoreBatch(ctx, insts[k:k+16])
	}
}

// BenchmarkEncodeUserState is the preference pass alone.
func BenchmarkEncodeUserState(b *testing.B) {
	m, insts := benchFixture(b)
	ctx := context.Background()
	var st *UserState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _ = m.EncodeUserState(ctx, insts[i%len(insts)])
	}
	_ = st
}

// BenchmarkLegacyLogits is the training-side forward, logits(train=false) on
// a reused tape: the path inference left, kept as the yardstick.
func BenchmarkLegacyLogits(b *testing.B) {
	m, insts := benchFixture(b)
	t := nn.NewTape()
	var logits *nn.Node
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset()
		logits = m.logits(t, insts[i%len(insts)], false)
	}
	_ = logits
}

// trainStep is one training instance as a trainer worker runs it:
// Loss(train=true) on pre-drawn noise and Backward, on a reused tape whose
// gradients land in a GradShadow.
func trainStep(tb testing.TB) func(i int) {
	m, insts := benchFixture(tb)
	for _, inst := range insts {
		m.PrepareInstance(inst)
	}
	t := nn.NewTape()
	t.WithGrads(nn.NewGradShadow(m.Params()))
	return func(i int) {
		inst := insts[i%len(insts)]
		t.Reset()
		t.Backward(m.Loss(t, inst, true))
	}
}

// TestTrainStepAllocCeiling bounds what one training instance costs a
// worker: 19 allocations today, nearly all of them the input matrices the
// forward copies out of the instance (the m topic sequences, the list
// features, the marginal-diversity table). The ceiling only moves down.
func TestTrainStepAllocCeiling(t *testing.T) {
	step := trainStep(t)
	for i := 0; i < 64; i++ { // every instance once: the tape reaches its size
		step(i)
	}
	i := 0
	n := testing.AllocsPerRun(64, func() { step(i); i++ })
	t.Logf("%v allocations per training instance", n)
	if n > 19 {
		t.Errorf("train step: %v allocations per instance, ceiling 19", n)
	}
}

// BenchmarkTrainStep is one training instance as a trainer worker runs it:
// Loss(train=true) on pre-drawn noise and Backward, on a reused tape whose
// gradients land in a GradShadow.
func BenchmarkTrainStep(b *testing.B) {
	step := trainStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
