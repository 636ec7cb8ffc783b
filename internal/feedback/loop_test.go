package feedback

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bandit"
	"repro/internal/core"
	"repro/internal/engine"
)

// loopEngine is the online loop end to end: an engine that serves every
// request through a bandit arm and tracks each response with an ingestor,
// which logs its feedback to dir and credits the policy.
func loopEngine(t *testing.T, pol *bandit.Policy) (e *engine.Engine, in *Ingestor, dir string) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in = NewIngestor(l, pol, IngestConfig{})
	man := engine.Manifest{Dataset: "loop", Config: core.Config{UserDim: 2, ItemDim: 2, Topics: 2}}
	bp, err := NewBanditProvider(engine.StaticProvider(engine.Pinned{Manifest: man, Version: "v1"}), pol, 100)
	if err != nil {
		t.Fatal(err)
	}
	e = engine.New(bp, engine.Config{Feedback: in})
	t.Cleanup(e.Close)
	return e, in, dir
}

// loopRequest is user u's n-th impression: u's features and (empty) history
// with a fresh slate of four candidates drawn at random.
func loopRequest(u, n int) *engine.Request {
	user := rand.New(rand.NewSource(int64(u)))
	req := &engine.Request{
		UserFeatures:   []float64{user.NormFloat64(), user.NormFloat64()},
		TopicSequences: [][]engine.SeqItem{{}, {}},
	}
	slate := rand.New(rand.NewSource(int64(n)<<32 | int64(u)))
	for i := 0; i < 4; i++ {
		req.Items = append(req.Items, engine.Item{
			ID:        4*slate.Intn(1<<20) + i,
			Features:  []float64{slate.Float64(), slate.Float64()},
			Cover:     []float64{float64(i % 2), float64(1 - i%2)},
			InitScore: 1 - 0.1*float64(i),
		})
	}
	return req
}

// serveAndClick serves one impression and submits its feedback: a click on
// the top item when click says the served arm pays this user.
func serveAndClick(t *testing.T, e *engine.Engine, in *Ingestor, req *engine.Request, click func(arm int) bool) engine.Response {
	t.Helper()
	resp, err := e.Rerank(context.Background(), req)
	if err != nil || resp.Degraded {
		t.Fatalf("%+v, %v", resp, err)
	}
	arm, ok := in.policy.ArmIndex(resp.ModelVersion)
	if !ok {
		t.Fatalf("served by %q, not an arm", resp.ModelVersion)
	}
	ev := engine.FeedbackEvent{RequestID: resp.RequestID, Items: resp.Ranked, Clicks: []bool{click(arm)}}
	if err := in.Submit(ev); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestLoopUserStableAcrossSlates: every logged event of one user carries one
// User and one click-model Session().User, although each impression showed
// a fresh slate.
func TestLoopUserStableAcrossSlates(t *testing.T) {
	e, in, dir := loopEngine(t, testPolicy(t))
	const users, slates = 10, 8
	userOf := map[string]int{} // request id → user index
	for n := 0; n < slates; n++ {
		for u := 0; u < users; u++ {
			resp := serveAndClick(t, e, in, loopRequest(u, n), func(arm int) bool { return arm == u%2 })
			userOf[resp.RequestID] = u
		}
	}
	drain(t, in)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	keys, sessions := map[int]uint64{}, map[int]int{}
	events := 0
	if _, err := Replay(dir, 0, func(_ uint64, ev Event) error {
		events++
		u := userOf[ev.RequestID]
		if ev.User == 0 {
			t.Fatalf("event %s logged uncorrelated", ev.RequestID)
		}
		if k, seen := keys[u]; seen && k != ev.User {
			t.Fatalf("user %d logged as %#x and %#x", u, k, ev.User)
		}
		if s, seen := sessions[u]; seen && s != ev.session().User {
			t.Fatalf("user %d is click-model users %d and %d", u, s, ev.session().User)
		}
		keys[u], sessions[u] = ev.User, ev.session().User
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != users*slates || len(keys) != users {
		t.Fatalf("%d events from %d users, want %d from %d", events, len(keys), users*slates, users)
	}
}

// TestLoopLearnsPerSegment is TestPolicyPerSegmentSpecialization through the
// serving loop: segment-0 users pay only arm 0, segment-1 users only arm 2,
// and every impression is a fresh slate. The bandit learns each segment's arm
// only if all of a user's rewards land in that user's segment.
func TestLoopLearnsPerSegment(t *testing.T) {
	arms, err := bandit.ParseArms("mmr@0.2,mmr@0.5,mmr@0.8")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := bandit.NewPolicy(bandit.PolicyConfig{Arms: arms, Segments: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e, in, _ := loopEngine(t, pol)
	const users = 40
	paying := make([]int, users) // 0 for segment-0 users, 2 for segment-1 users
	for u := range paying {
		paying[u] = 2 * pol.Segment(engine.UserKey(loopRequest(u, 0)))
	}
	for n := 0; n < 50; n++ {
		for u := 0; u < users; u++ {
			serveAndClick(t, e, in, loopRequest(u, n), func(arm int) bool { return arm == paying[u] })
		}
		drain(t, in)
	}
	hits, served := map[int]int{}, map[int]int{}
	for n := 50; n < 60; n++ {
		for u := 0; u < users; u++ {
			resp, err := e.Rerank(context.Background(), loopRequest(u, n))
			if err != nil {
				t.Fatal(err)
			}
			if arm, _ := pol.ArmIndex(resp.ModelVersion); arm == paying[u] {
				hits[paying[u]]++
			}
			served[paying[u]]++
		}
	}
	for _, arm := range []int{0, 2} {
		if served[arm] == 0 {
			t.Fatalf("no user pays arm %d", arm)
		}
		if frac := float64(hits[arm]) / float64(served[arm]); frac < 0.8 {
			t.Errorf("users paying arm %d were served it %.2f of the time, want ≥ 0.8", arm, frac)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}
