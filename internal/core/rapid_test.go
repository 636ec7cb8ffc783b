package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rerank"
)

func fixture(t *testing.T, n int, seed int64) ([]*rerank.Instance, *dataset.Dataset) {
	t.Helper()
	return fixtureLen(t, n, seed, 8)
}

// fixtureLen is fixture with lists of listLen items.
func fixtureLen(t *testing.T, n int, seed int64, listLen int) ([]*rerank.Instance, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.TaobaoLike(seed)
	cfg.NumUsers = 25
	cfg.NumItems = 70
	cfg.Categories = 15
	cfg.RerankRequests = n
	cfg.TestRequests = 1
	cfg.ListLen = listLen
	cfg.PoolSize = listLen + 4
	d := dataset.MustGenerate(cfg)
	rng := rand.New(rand.NewSource(seed + 1))
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
	return out, d
}

func testConfig(d *dataset.Dataset, seed int64) Config {
	cfg := DefaultConfig(d.Cfg.UserDim, d.Cfg.ItemDim, d.M(), seed)
	cfg.Hidden = 8
	return cfg
}

// observeFunc adapts a function to rerank.EpochObserver.
type observeFunc func(rerank.EpochStats)

func (f observeFunc) ObserveEpoch(es rerank.EpochStats) { f(es) }

func TestNames(t *testing.T) {
	base := Config{UserDim: 2, ItemDim: 2, Topics: 2, Hidden: 4, D: 3, UseDiversity: true, Heads: 2, Output: Probabilistic}
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) {}, "RAPID-pro"},
		{func(c *Config) { c.Output = Deterministic }, "RAPID-det"},
		{func(c *Config) { c.UseDiversity = false }, "RAPID-RNN"},
		{func(c *Config) { c.Agg = MeanAgg }, "RAPID-mean"},
		{func(c *Config) { c.Encoder = TransformerEncoder }, "RAPID-trans"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if got := New(cfg).Name(); got != tc.want {
			t.Fatalf("Name = %s, want %s", got, tc.want)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero hidden size did not panic")
		}
	}()
	New(Config{UserDim: 2, ItemDim: 2, Topics: 2, Hidden: 0, D: 3})
}

func TestAllVariantsForwardAndTrain(t *testing.T) {
	train, d := fixture(t, 16, 31)
	test, _ := fixture(t, 3, 32)
	variants := []func(*Config){
		nil,
		func(c *Config) { c.Output = Deterministic },
		func(c *Config) { c.UseDiversity = false },
		func(c *Config) { c.Agg = MeanAgg },
		func(c *Config) { c.Encoder = TransformerEncoder },
	}
	for i, mutate := range variants {
		cfg := testConfig(d, int64(40+i))
		if mutate != nil {
			mutate(&cfg)
		}
		m := New(cfg)
		m.TrainCfg = rerank.TrainConfig{Epochs: 2, LR: 0.005, BatchSize: 4, ClipNorm: 5, Seed: 1}
		if err := m.Fit(train); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, inst := range test {
			s := m.Scores(inst)
			if len(s) != inst.L() {
				t.Fatalf("%s: %d scores", m.Name(), len(s))
			}
			for _, v := range s {
				if math.IsNaN(v) || v <= 0 || v >= 1 {
					t.Fatalf("%s: score %v outside (0,1)", m.Name(), v)
				}
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	train, d := fixture(t, 30, 33)
	m := New(testConfig(d, 50))
	var first, last float64
	m.TrainCfg = rerank.TrainConfig{
		Epochs: 6, LR: 0.01, BatchSize: 4, ClipNorm: 5, Seed: 2,
		Observer: observeFunc(func(es rerank.EpochStats) {
			if es.Epoch == 0 {
				first = es.Loss
			}
			last = es.Loss
		}),
	}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("RAPID loss did not decrease: %v → %v", first, last)
	}
}

func TestGradCheckRapidDet(t *testing.T) {
	// End-to-end gradient check of the full RAPID graph (deterministic
	// head so the loss is a deterministic function of the parameters).
	train, d := fixture(t, 1, 34)
	inst := train[0]
	cfg := testConfig(d, 60)
	cfg.Hidden = 4
	cfg.Output = Deterministic
	m := New(cfg)
	build := func() float64 {
		tp := nn.NewTape()
		return m.Loss(tp, inst, false).Value.Data[0]
	}
	buildBackward := func() {
		tp := nn.NewTape()
		tp.Backward(m.Loss(tp, inst, false))
	}
	if _, err := nn.GradCheck(m.Params().All(), build, buildBackward, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestProbabilisticHeads(t *testing.T) {
	train, d := fixture(t, 4, 35)
	inst := train[0]
	m := New(testConfig(d, 70))
	// Training mode is stochastic: two passes differ.
	t1 := nn.NewTape()
	l1 := m.logits(t1, inst, true)
	t2 := nn.NewTape()
	l2 := m.logits(t2, inst, true)
	if l1.Value.EqualApprox(l2.Value, 1e-12) {
		t.Fatal("training logits identical across samples — reparameterization inactive")
	}
	// Inference is deterministic and equals μ + Σ ≥ μ.
	t3 := nn.NewTape()
	ucb := m.logits(t3, inst, false)
	t4 := nn.NewTape()
	ucb2 := m.logits(t4, inst, false)
	if !ucb.Value.EqualApprox(ucb2.Value, 1e-12) {
		t.Fatal("inference logits not deterministic")
	}
	t5 := nn.NewTape()
	mu := m.headMu.Forward(t5, m.headInput(t5, inst))
	for i := range ucb.Value.Data {
		if ucb.Value.Data[i] < mu.Value.Data[i] {
			t.Fatal("UCB below the mean — Σ not positive")
		}
	}
}

func TestPreferencePersonalization(t *testing.T) {
	// θ̂ must differ across users with different histories.
	train, d := fixture(t, 10, 36)
	m := New(testConfig(d, 80))
	m.TrainCfg = rerank.TrainConfig{Epochs: 1, LR: 0.005, BatchSize: 4, ClipNorm: 5, Seed: 3}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	var distinct bool
	base := m.Preference(train[0])
	for _, inst := range train[1:] {
		p := m.Preference(inst)
		for j := range p {
			if math.Abs(p[j]-base[j]) > 1e-6 {
				distinct = true
			}
		}
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("θ̂ component %v outside [0,1]", v)
			}
		}
	}
	if !distinct {
		t.Fatal("θ̂ identical for all users — personalization inactive")
	}
}

func TestPreferenceWithoutDiversityIsZero(t *testing.T) {
	train, d := fixture(t, 2, 37)
	cfg := testConfig(d, 90)
	cfg.UseDiversity = false
	m := New(cfg)
	p := m.Preference(train[0])
	for _, v := range p {
		if v != 0 {
			t.Fatal("RAPID-RNN should report a zero preference")
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	train, d := fixture(t, 8, 38)
	m := New(testConfig(d, 100))
	m.TrainCfg = rerank.TrainConfig{Epochs: 1, LR: 0.005, BatchSize: 4, ClipNorm: 5, Seed: 4}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Params().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(testConfig(d, 100))
	if err := m2.Params().Load(&buf); err != nil {
		t.Fatal(err)
	}
	s1 := m.Scores(train[0])
	s2 := m2.Scores(train[0])
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-12 {
			t.Fatalf("restored model scores differ at %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

// headInput exposes the fused [H, Δ] input for the head tests.
func (m *Model) headInput(t *nn.Tape, inst *rerank.Instance) *nn.Node {
	x := t.Constant(inst.ListFeatures())
	h := m.relevance(t, x)
	if !m.Cfg.UseDiversity {
		return h
	}
	theta := m.preference(t, inst)
	return t.ConcatCols(h, m.diversityGain(t, inst, theta))
}

func TestDiversityFunctionVariants(t *testing.T) {
	train, d := fixture(t, 10, 39)
	for _, name := range []string{"prob-coverage", "saturated-coverage", "facility-location"} {
		cfg := testConfig(d, 110)
		cfg.DiversityFn = name
		m := New(cfg)
		m.TrainCfg = rerank.TrainConfig{Epochs: 1, LR: 0.005, BatchSize: 4, ClipNorm: 5, Seed: 1}
		if err := m.Fit(train); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := m.Scores(train[0])
		for _, v := range s {
			if math.IsNaN(v) {
				t.Fatalf("%s produced NaN score", name)
			}
		}
	}
}

func TestUnknownDiversityFunctionPanics(t *testing.T) {
	_, d := fixture(t, 1, 40)
	cfg := testConfig(d, 120)
	cfg.DiversityFn = "nope"
	defer func() {
		if recover() == nil {
			t.Fatal("unknown diversity function did not panic")
		}
	}()
	New(cfg)
}

// fullHistory returns inst with every topic sequence filled past D, the
// largest graph an instance can build.
func fullHistory(inst *rerank.Instance) *rerank.Instance {
	full := *inst
	full.TopicSeqs = make([][]int, full.M)
	for j := range full.TopicSeqs {
		for k := 0; k < rerank.TopicSeqCap; k++ {
			full.TopicSeqs[j] = append(full.TopicSeqs[j], inst.Items[(3*j+k)%len(inst.Items)])
		}
	}
	return &full
}

// TestTapeCapHintBoundsGraph holds the size of a training pass's graph:
// every variant records as many nodes at L = 64 as at L = 1, since each
// recurrence is one node whatever its length, and a RAPID-pro pass at
// L = 20 is at most 80 nodes, where the step graph recorded 19 per step
// (1 321 nodes on this list).
func TestTapeCapHintBoundsGraph(t *testing.T) {
	long, d := fixtureLen(t, 1, 91, 64)
	full := fullHistory(long[0])
	for _, m := range modelVariants(d) {
		nodes := map[int]int{}
		for _, l := range []int{1, 20, 64} {
			inst := truncated(full, l)
			tp := nn.NewTape()
			m.Loss(tp, inst, true)
			nodes[l] = tp.NumNodes()
		}
		if nodes[1] != nodes[64] {
			t.Errorf("%s: %d nodes at L=1, %d at L=64", m.Name(), nodes[1], nodes[64])
		}
		if m.Name() == "RAPID-pro" && nodes[20] > 80 {
			t.Errorf("RAPID-pro L=20 records %d nodes, want ≤ 80", nodes[20])
		}
	}
}
