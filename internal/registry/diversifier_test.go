package registry

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// TestPublishDiversifierLifecycle drives a weightless diversifier version
// through the real production path: PublishDiversifier commits it beside a
// trained model version, engine.LoadScorer (the default Loader) builds the
// diversify adapter from the manifest, warm-up validates it against the
// synthesized golden set, and the registry stages it as a canary candidate
// next to the active neural model.
func TestPublishDiversifierLifecycle(t *testing.T) {
	root := t.TempDir()
	cfg := testGeometry()
	m := core.New(cfg)

	if _, err := Publish(root, "v20250101T000000", m.ParamSet(),
		engine.Manifest{Dataset: "test", Lambda: 0.9, Config: cfg}); err != nil {
		t.Fatal(err)
	}
	divMan := engine.Manifest{Dataset: "test", Config: cfg,
		Diversifier: "window", DiversifierLambda: 0.5}
	label, err := PublishDiversifier(root, "div-window", divMan)
	if err != nil {
		t.Fatal(err)
	}
	if label != "div-window" {
		t.Fatalf("label %q", label)
	}
	// A manifest naming no diversifier must be rejected outright.
	if _, err := PublishDiversifier(root, "div-bad", engine.Manifest{Config: cfg}); err == nil {
		t.Fatal("PublishDiversifier accepted a manifest with no diversifier")
	}

	// "div-*" sorts before "v*": startup auto-activation must still pick
	// the trained model, not the heuristic.
	r, err := New(Config{Root: root, CanaryPercent: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	active, err := r.ActivateLatest()
	if err != nil {
		t.Fatal(err)
	}
	if active != "v20250101T000000" {
		t.Fatalf("ActivateLatest picked %q, want the trained version", active)
	}

	// Staging the diversifier version exercises the full load path:
	// LoadScorer manifest branch + warm-up on the synthesized golden set.
	if err := r.Load("div-window"); err != nil {
		t.Fatal(err)
	}
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	var state string
	for _, v := range vs {
		if v.Version == "div-window" {
			state = v.State
		}
	}
	if state != "candidate" {
		t.Fatalf("div-window state %q after load, want candidate", state)
	}

	// The staged candidate must actually be the diversify adapter, scoring
	// rank permutations through the engine.Scorer seam.
	var pinned engine.Pinned
	for key := uint64(0); key < 64; key++ {
		if p := r.Pick(key); p.Version == "div-window" {
			pinned = p
			break
		}
	}
	if pinned.Scorer == nil {
		t.Fatal("no routing key pinned the div-window candidate at 50% canary")
	}
	if !strings.HasPrefix(pinned.Scorer.Name(), "div-") {
		t.Fatalf("candidate scorer %q is not a diversifier adapter", pinned.Scorer.Name())
	}
	req := syntheticGolden(cfg, 1, 8)[0]
	inst, err := engine.ToInstance(cfg, &req)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := pinned.Scorer.Score(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != inst.L() {
		t.Fatalf("diversifier candidate returned %d scores for %d items", len(scores), inst.L())
	}
}
