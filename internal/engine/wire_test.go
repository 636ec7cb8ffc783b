package engine

import (
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
	// CoverOf resolves listed items via the per-request map and unknown ids
	// to a zero vector.
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
			r.Items = make([]Item, MaxListLength+1)
			for i := range r.Items {
				it.ID = i
				r.Items[i] = it
			}
		}},
	}
	for _, tc := range cases {
		req := validRequest()
		tc.mutate(req)
		if _, err := ToInstance(testConfig(), req); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
}
