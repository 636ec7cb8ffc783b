package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestToInstanceValid(t *testing.T) {
	inst, err := ToInstance(testConfig(), validRequest())
	if err != nil {
		t.Fatal(err)
	}
	if inst.L() != 3 || inst.M != 2 {
		t.Fatalf("instance geometry L=%d M=%d", inst.L(), inst.M)
	}
	if len(inst.TopicSeqs[0]) != 1 {
		t.Fatalf("topic 0 sequence %v", inst.TopicSeqs[0])
	}
	if f := inst.ItemFeat(inst.TopicSeqs[0][0]); f[0] != 0.5 {
		t.Fatal("sequence item features unresolved")
	}
	// CoverOf resolves listed items via the sorted position index and unknown
	// ids to a zero vector.
	if c := inst.CoverOf(8); c[1] != 1 {
		t.Fatalf("CoverOf(8) = %v", c)
	}
	if c := inst.CoverOf(12345); c[0] != 0 || c[1] != 0 {
		t.Fatalf("CoverOf(unknown) = %v", c)
	}
	scores := core.New(testConfig()).Scores(inst)
	if len(scores) != 3 {
		t.Fatalf("scores %v", scores)
	}
}

func TestToInstanceValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"wrong user dims", func(r *Request) { r.UserFeatures = []float64{1} }},
		{"no items", func(r *Request) { r.Items = nil }},
		{"wrong item dims", func(r *Request) { r.Items[0].Features = []float64{1, 2, 3} }},
		{"wrong cover dims", func(r *Request) { r.Items[1].Cover = []float64{1} }},
		{"wrong topic count", func(r *Request) { r.TopicSequences = r.TopicSequences[:1] }},
		{"wrong seq dims", func(r *Request) {
			r.TopicSequences[0] = []SeqItem{{Features: []float64{1}}}
		}},
		{"oversized list", func(r *Request) {
			it := r.Items[0]
			r.Items = make([]Item, maxListLength+1)
			for i := range r.Items {
				it.ID = i
				r.Items[i] = it
			}
		}},
		{"repeated id", func(r *Request) { r.Items[2].ID = r.Items[0].ID }},
	}
	for _, tc := range cases {
		req := validRequest()
		tc.mutate(req)
		if _, err := ToInstance(testConfig(), req); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
}

// TestRepeatedItemIDIsBadInput: two list entries under one id used to be
// scored with the last one's features and both reported under the last one's
// score. A repeated id is bad input, named in the error, before anything
// scores.
func TestRepeatedItemIDIsBadInput(t *testing.T) {
	req := validRequest()
	for i, id := range []int{-1, 3, 3} {
		req.Items[i].ID = id
		req.Items[i].InitScore = []float64{0.1, 0.9, 0.5}[i]
	}
	const want = "item 3 appears more than once"
	if _, err := ToInstance(testConfig(), req); err == nil || err.Error() != want {
		t.Fatalf("ToInstance: %v, want %q", err, want)
	}
	e := stubEngine(t, Config{})
	defer e.Close()
	resp, err := e.Rerank(context.Background(), req)
	var bad *BadInputError
	if !errors.As(err, &bad) || bad.Msg != want {
		t.Fatalf("Rerank answered ranked %v scores %v (error %v), want bad input %q", resp.Ranked, resp.Scores, err, want)
	}
}

// relabelRequest is a request whose list ids are 0…5 and whose two topics
// carry 4 and 12 sequence items: past the model's D and past TopicSeqCap.
func relabelRequest(rng *rand.Rand) *Request {
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	req := &Request{UserFeatures: vec(3)}
	for i := 0; i < 6; i++ {
		req.Items = append(req.Items, Item{ID: i, Features: vec(2), Cover: vec(2), InitScore: rng.Float64()})
	}
	for _, n := range []int{4, 12} {
		seq := make([]SeqItem, n)
		for k := range seq {
			seq[k].Features = vec(2)
		}
		req.TopicSequences = append(req.TopicSequences, seq)
	}
	return req
}

// TestRelabelledIDsScoreTheSame is the id property: ids name items and carry
// nothing else, so any injective relabelling of a request's list ids —
// negatives where the synthetic sequence ids start, math.MinInt, math.MaxInt
// and random 64-bit values included — scores bitwise the same in every
// position.
func TestRelabelledIDsScoreTheSame(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	req := relabelRequest(rng)
	m := core.New(testConfig())
	inst, err := ToInstance(testConfig(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Scores(inst)

	labellings := [][]int{
		{-1, -2, -3, -4, -5, -6},
		{-6, -5, -4, -3, -2, -1},
		{math.MinInt, math.MinInt + 1, math.MinInt + 2, math.MinInt + 3, math.MinInt + 4, math.MinInt + 5},
		{math.MaxInt, math.MaxInt - 1, math.MaxInt - 2, math.MaxInt - 3, math.MaxInt - 4, math.MaxInt - 5},
		{math.MinInt, math.MaxInt, -1, 0, 1, math.MinInt + 17},
	}
	extremes := []int{math.MinInt, math.MinInt + 1, math.MinInt + 16, math.MaxInt, math.MaxInt - 1}
	for len(labellings) < 500 {
		seen := map[int]bool{}
		ids := make([]int, 0, len(req.Items))
		for len(ids) < cap(ids) {
			var id int
			switch rng.Intn(4) {
			case 0:
				id = -1 - rng.Intn(20) // among the synthetic ids of an all-non-negative list
			case 1:
				id = extremes[rng.Intn(len(extremes))]
			case 2:
				id = int(rng.Uint64())
			default:
				id = rng.Intn(10)
			}
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		labellings = append(labellings, ids)
	}
	for _, ids := range labellings {
		for i := range req.Items {
			req.Items[i].ID = ids[i]
		}
		inst, err := ToInstance(testConfig(), req)
		if err != nil {
			t.Fatalf("ids %v: %v", ids, err)
		}
		got := m.Scores(inst)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("ids %v: position %d scores %v, with ids 0…5 %v", ids, i, got[i], want[i])
			}
		}
	}
}

// sizedRequest is a request of the benchmark pool's geometry with l items
// and hist sequence items in every topic.
func sizedRequest(cfg core.Config, l, hist int) *Request {
	req := &Request{UserFeatures: make([]float64, cfg.UserDim)}
	for i := 0; i < l; i++ {
		req.Items = append(req.Items, Item{ID: 640 + i, Features: make([]float64, cfg.ItemDim), Cover: make([]float64, cfg.Topics)})
	}
	for j := 0; j < cfg.Topics; j++ {
		seq := make([]SeqItem, hist)
		for k := range seq {
			seq[k].Features = make([]float64, cfg.ItemDim)
		}
		req.TopicSequences = append(req.TopicSequences, seq)
	}
	return req
}

// TestToInstanceAllocs pins the instance's storage to a constant that list
// length and history length do not move: seven allocations — the id, float
// and row slabs, the topic-sequence table, the instance and its two lookups.
func TestToInstanceAllocs(t *testing.T) {
	cfg := core.DefaultConfig(13, 8, 5, 1)
	first := -1.0
	for _, l := range []int{5, 30, 200} {
		for _, hist := range []int{0, 5, 50} {
			req := sizedRequest(cfg, l, hist)
			n := testing.AllocsPerRun(50, func() {
				if _, err := ToInstance(cfg, req); err != nil {
					t.Fatal(err)
				}
			})
			if first < 0 {
				first = n
				t.Logf("%v allocations", n)
			}
			if n != first || n > 7 {
				t.Errorf("L=%d, %d per topic: %v allocations, want %v at every size and at most 7", l, hist, n, first)
			}
		}
	}
}

func BenchmarkToInstance(b *testing.B) {
	cfg := core.DefaultConfig(13, 8, 5, 1)
	req := poolShapedRequest(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ToInstance(cfg, req); err != nil {
			b.Fatal(err)
		}
	}
}
