package feedback

import (
	"testing"
	"time"

	"repro/internal/bandit"
	"repro/internal/engine"
)

func testPolicy(t *testing.T) *bandit.Policy {
	t.Helper()
	p, err := bandit.NewPolicy(bandit.PolicyConfig{
		Arms:     []bandit.Arm{{Name: "mmr", Lambda: 0.2}, {Name: "mmr", Lambda: 0.8}},
		Segments: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drain waits for the ingest goroutine to absorb everything submitted so far.
func drain(t *testing.T, in *Ingestor) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(in.ch) == 0 {
			// One more beat for the in-flight event past the channel read.
			time.Sleep(10 * time.Millisecond)
			if len(in.ch) == 0 {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("ingest queue never drained")
}

func TestIngestorCorrelatesAndLogs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol := testPolicy(t)
	in := NewIngestor(l, pol, IngestConfig{})
	armLabel := pol.Arms()[1].Label()
	in.Track("rid-1", 42, armLabel)
	in.Track("rid-2", 43, "v7") // non-arm version: logged, not credited

	if err := in.Submit(engine.FeedbackEvent{RequestID: "rid-1", Items: []int{1, 2, 3}, Clicks: []bool{true}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Submit(engine.FeedbackEvent{RequestID: "rid-2", Items: []int{4, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Submit(engine.FeedbackEvent{RequestID: "rid-unknown", Items: []int{9}}); err != nil {
		t.Fatal(err)
	}
	drain(t, in)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}

	byID := map[string]Event{}
	if _, err := Replay(dir, 0, func(_ uint64, ev Event) error {
		byID[ev.RequestID] = ev
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(byID) != 3 {
		t.Fatalf("logged %d events, want 3", len(byID))
	}
	got := byID["rid-1"]
	if got.User != 42 || got.Version != armLabel || got.Arm != 1 || got.Lambda != 0.8 {
		t.Fatalf("arm event not joined: %+v", got)
	}
	if !got.clicked() || got.UnixMS == 0 {
		t.Fatalf("click/timestamp lost: %+v", got)
	}
	if ev := byID["rid-2"]; ev.User != 43 || ev.Arm != -1 || ev.Version != "v7" {
		t.Fatalf("non-arm event mis-joined: %+v", ev)
	}
	if ev := byID["rid-unknown"]; ev.User != 0 || ev.Arm != -1 {
		t.Fatalf("uncorrelated event must carry no user or arm: %+v", ev)
	}

	// The clicked arm event must have reached the policy.
	snap := pol.Snapshot()
	if snap.Updates != 1 || snap.Arms[1].Pulls != 1 || snap.Arms[1].Reward != 1 {
		t.Fatalf("policy not credited: %+v", snap)
	}
}

func TestIngestorBackpressure(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngestor(l, nil, IngestConfig{queueSize: 1})
	// Saturate: with a queue of 1, repeated submits must eventually shed
	// rather than block (the ingest goroutine races the producer, so only the
	// error value — never blocking — is the contract under test).
	shed := false
	for i := 0; i < 10_000 && !shed; i++ {
		if err := in.Submit(engine.FeedbackEvent{RequestID: "r", Items: []int{1}}); err != nil {
			if err != engine.ErrFeedbackBusy {
				t.Fatalf("unexpected submit error: %v", err)
			}
			shed = true
		}
	}
	if !shed {
		t.Fatal("queue of 1 never shed under a 10k-submit burst")
	}
	drain(t, in)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTrackEviction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := NewIngestor(l, nil, IngestConfig{trackCap: 2})
	in.Track("a", 1, "v1")
	in.Track("b", 2, "v1")
	in.Track("c", 3, "v1") // evicts a
	if err := in.Submit(engine.FeedbackEvent{RequestID: "a", Items: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := in.Submit(engine.FeedbackEvent{RequestID: "c", Items: []int{1}}); err != nil {
		t.Fatal(err)
	}
	drain(t, in)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	byID := map[string]Event{}
	if _, err := Replay(dir, 0, func(_ uint64, ev Event) error {
		byID[ev.RequestID] = ev
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ev := byID["a"]; ev.User != 0 {
		t.Fatalf("evicted id must ingest uncorrelated, got %+v", ev)
	}
	if ev := byID["c"]; ev.User != 3 {
		t.Fatalf("live id lost its correlation: %+v", ev)
	}
}
