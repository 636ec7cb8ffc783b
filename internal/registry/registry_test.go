package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rerank"
)

func testGeometry() core.Config {
	return core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2,
		Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
}

// stubScorer carries its version label in both the scorer name and a fixed
// score offset, so coherence tests can detect a torn (scorer, version) pair.
type stubScorer struct {
	name  string
	sleep time.Duration
	bad   bool // emit NaN scores
	short bool // emit too few scores
}

func (s stubScorer) Name() string { return s.name }
func (s stubScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return s.Scores(inst), nil
}
func (s stubScorer) Scores(inst *rerank.Instance) []float64 {
	if s.sleep > 0 {
		time.Sleep(s.sleep)
	}
	out := make([]float64, len(inst.Items))
	if s.short {
		return out[:len(out)/2]
	}
	for i := range out {
		if s.bad {
			out[i] = math.NaN()
		} else {
			out[i] = inst.InitScores[i]
		}
	}
	return out
}

// fakeVersionDir creates an on-disk version directory that Scan and
// loadVersion's stat accept; the stub Loader never reads the file contents.
func fakeVersionDir(t *testing.T, root, label string) {
	t.Helper()
	dir := filepath.Join(root, label)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{modelFile, manifestFile} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("stub"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// labelFromModelPath recovers the version label a stub Loader was asked for.
func labelFromModelPath(modelPath string) string {
	return filepath.Base(filepath.Dir(modelPath))
}

// newTestRegistry builds a registry over a temp root with a stub loader whose
// scorers echo their version label; mutate tweaks the config before New.
func newTestRegistry(t *testing.T, labels []string, mutate func(*Config)) *Registry {
	t.Helper()
	root := t.TempDir()
	for _, l := range labels {
		fakeVersionDir(t, root, l)
	}
	cfg := Config{
		Root: root,
		Loader: func(modelPath string) (engine.Scorer, engine.Manifest, error) {
			label := labelFromModelPath(modelPath)
			return stubScorer{name: label},
				engine.Manifest{Dataset: label, Config: testGeometry()}, nil
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestLoadActivatesFirstThenStagesCandidate(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2"}, nil)

	if err := r.Load("v1"); err != nil {
		t.Fatal(err)
	}
	if pin := r.Active(); pin.Version != "v1" || pin.Canary {
		t.Fatalf("after first load: active %q canary %v", pin.Version, pin.Canary)
	}
	if err := r.Load("v2"); err != nil {
		t.Fatal(err)
	}
	// v2 is only a candidate: the active pin must still be v1.
	if pin := r.Active(); pin.Version != "v1" {
		t.Fatalf("candidate load changed active to %q", pin.Version)
	}

	// Reloading an already-active or already-staged version is a conflict.
	for _, label := range []string{"v1", "v2"} {
		if err := r.Load(label); !errors.Is(err, engine.ErrLifecycleConflict) {
			t.Fatalf("Load(%s) again: got %v, want ErrLifecycleConflict", label, err)
		}
	}
	// A version that is not on disk is unknown, as is an invalid label.
	if err := r.Load("v404"); !errors.Is(err, engine.ErrUnknownVersion) {
		t.Fatalf("Load(v404): got %v, want ErrUnknownVersion", err)
	}
	if err := r.Load("../evil"); !errors.Is(err, engine.ErrUnknownVersion) {
		t.Fatalf("Load(../evil): got %v, want ErrUnknownVersion", err)
	}
	if got := r.met.loads.Value(); got != 2 {
		t.Fatalf("loads counter %d, want 2", got)
	}
}

func TestPromoteAndRollback(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2"}, nil)
	if err := r.Promote("v1"); !errors.Is(err, engine.ErrLifecycleConflict) {
		t.Fatalf("promote with no candidate: %v", err)
	}
	if _, err := r.Rollback(); !errors.Is(err, engine.ErrLifecycleConflict) {
		t.Fatalf("rollback with no history: %v", err)
	}
	mustLoad := func(label string) {
		t.Helper()
		if err := r.Load(label); err != nil {
			t.Fatal(err)
		}
	}
	mustLoad("v1")
	mustLoad("v2")

	if err := r.Promote("v1"); !errors.Is(err, engine.ErrLifecycleConflict) {
		t.Fatalf("promote of non-candidate label: %v", err)
	}
	if err := r.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	if pin := r.Active(); pin.Version != "v2" {
		t.Fatalf("after promote: active %q", pin.Version)
	}

	// With no candidate, rollback reverts to the previous active version.
	desc, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "v1") {
		t.Fatalf("rollback description %q does not name the restored version", desc)
	}
	if pin := r.Active(); pin.Version != "v1" {
		t.Fatalf("after rollback: active %q", pin.Version)
	}
	// History is consumed: a second rollback has nothing to revert to.
	if _, err := r.Rollback(); !errors.Is(err, engine.ErrLifecycleConflict) {
		t.Fatalf("second rollback: %v", err)
	}

	// A staged candidate is aborted by rollback without touching the active.
	mustLoad("v2")
	if _, err := r.Rollback(); err != nil {
		t.Fatal(err)
	}
	if pin := r.Active(); pin.Version != "v1" {
		t.Fatalf("candidate abort changed active to %q", pin.Version)
	}
	if got := r.met.rollbacks.With("manual").Value(); got != 2 {
		t.Fatalf("manual rollbacks %d, want 2", got)
	}
}

func TestVersionsListing(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2", "v3"}, nil)
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, v := range vs {
		states[v.Version] = v.State
	}
	want := map[string]string{"v1": "active", "v2": "candidate", "v3": "available"}
	for label, state := range want {
		if states[label] != state {
			t.Fatalf("states %v, want %v", states, want)
		}
	}
	if err := r.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	vs, _ = r.Versions()
	states = map[string]string{}
	for _, v := range vs {
		states[v.Version] = v.State
	}
	if states["v2"] != "active" || states["v1"] != "previous" {
		t.Fatalf("post-promote states %v", states)
	}
}

// TestVersionsListingStableWhenDirectoriesVanish: loaded versions whose
// directories an operator deleted are still listed, after the on-disk ones
// and in lifecycle order (active, candidate, previous), the same on every
// call.
func TestVersionsListingStableWhenDirectoriesVanish(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2", "v3"}, nil)
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []string{"v1", "v2"} {
		if err := os.RemoveAll(filepath.Join(r.cfg.Root, l)); err != nil {
			t.Fatal(err)
		}
	}
	const want = "v3:available v1:active v2:candidate"
	for i := 0; i < 50; i++ {
		vs, err := r.Versions()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, v := range vs {
			got = append(got, v.Version+":"+v.State)
		}
		if strings.Join(got, " ") != want {
			t.Fatalf("call %d listed %v, want %s", i, got, want)
		}
	}
}

func TestActivateLatest(t *testing.T) {
	r := newTestRegistry(t, []string{"v20250101T000000", "v20250601T000000"}, nil)
	label, err := r.ActivateLatest()
	if err != nil {
		t.Fatal(err)
	}
	if label != "v20250601T000000" {
		t.Fatalf("activated %q, want the newest", label)
	}
	if pin := r.Active(); pin.Version != label {
		t.Fatalf("active %q", pin.Version)
	}

	empty := newTestRegistry(t, nil, nil)
	if _, err := empty.ActivateLatest(); err == nil {
		t.Fatal("ActivateLatest on an empty root must fail")
	}
}

func TestWarmupRejections(t *testing.T) {
	cases := []struct {
		name   string
		scorer stubScorer
		errHas string
	}{
		{"non-finite scores", stubScorer{bad: true}, "non-finite"},
		{"wrong score count", stubScorer{short: true}, "scores for"},
		// Warm-up stops at the first pass over budget, so this sleeps once
		// (about half a second).
		{"over latency budget", stubScorer{sleep: warmupBudget + 5*time.Millisecond}, "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRegistry(t, []string{"v1"}, func(c *Config) {
				c.Loader = func(modelPath string) (engine.Scorer, engine.Manifest, error) {
					s := tc.scorer
					s.name = labelFromModelPath(modelPath)
					return s, engine.Manifest{Dataset: s.name, Config: testGeometry()}, nil
				}
			})
			err := r.Load("v1")
			if err == nil {
				t.Fatal("warm-up accepted a disqualified version")
			}
			if !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("error %q does not mention %q", err, tc.errHas)
			}
			// A failed load must leave the registry unchanged and count the
			// failure.
			if pin := r.Active(); pin.Version != "none" {
				t.Fatalf("failed load activated %q", pin.Version)
			}
			if got := r.met.warmupFailures.Value(); got != 1 {
				t.Fatalf("warmupFailures %d, want 1", got)
			}
		})
	}
}

func TestSyntheticGoldenDeterministic(t *testing.T) {
	a := syntheticGolden(testGeometry(), 4, 6)
	b := syntheticGolden(testGeometry(), 4, 6)
	if len(a) != 4 || len(a[0].Items) != 6 {
		t.Fatalf("shape %d requests, %d items", len(a), len(a[0].Items))
	}
	for i := range a {
		if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
			t.Fatalf("request %d differs between identical generations", i)
		}
	}
}

func TestCanaryRoutingFractionAndDeterminism(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2"}, func(c *Config) {
		c.CanaryPercent = 30
	})
	if err := r.Load("v1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("v2"); err != nil {
		t.Fatal(err)
	}
	canary := 0
	for key := uint64(0); key < 10_000; key++ {
		pin := r.Pick(key)
		if pin.Canary {
			if pin.Version != "v2" {
				t.Fatalf("canary pin is %q", pin.Version)
			}
			canary++
		} else if pin.Version != "v1" {
			t.Fatalf("primary pin is %q", pin.Version)
		}
		// Deterministic: the same key must land on the same side.
		if again := r.Pick(key); again.Canary != pin.Canary {
			t.Fatalf("key %d flapped between canary and primary", key)
		}
	}
	// The split is exact over one full period of the key space.
	if canary != 3000 {
		t.Fatalf("canary got %d/10000 keys, want exactly 3000", canary)
	}

	// CanaryPercent 0 routes nothing to the candidate.
	zero := newTestRegistry(t, []string{"v1", "v2"}, nil)
	for _, l := range []string{"v1", "v2"} {
		if err := zero.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	for key := uint64(0); key < 10_000; key++ {
		if zero.Pick(key).Canary {
			t.Fatal("canary pick with CanaryPercent 0")
		}
	}
}

func TestAutoRollbackDemotesBadCanary(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2"}, func(c *Config) {
		c.CanaryPercent = 50
	})
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	// Healthy active traffic, then a canary degrading on every request: once
	// past the minimum sample its excess rate trips the auto-rollback.
	var canaryKey, primaryKey uint64
	for k := uint64(0); k < 10_000; k++ {
		if r.Pick(k).Canary {
			canaryKey = k
		} else {
			primaryKey = k
		}
	}
	for i := 0; i < 2*minCanarySamples; i++ {
		pin := r.Pick(primaryKey)
		pin.Observe("ok", time.Millisecond)
	}
	for i := 0; i < minCanarySamples-1; i++ {
		pin := r.Pick(canaryKey)
		if !pin.Canary {
			t.Fatal("candidate demoted before the minimum sample")
		}
		pin.Observe("deadline", time.Millisecond)
	}
	// The last degraded canary request reaches minCanarySamples and fires the
	// rollback exactly once.
	r.Pick(canaryKey).Observe("deadline", time.Millisecond)
	if pin := r.Pick(canaryKey); pin.Canary {
		t.Fatal("degrading canary was not demoted")
	}
	if pin := r.Active(); pin.Version != "v1" {
		t.Fatalf("active after auto-rollback: %q", pin.Version)
	}
	if got := r.met.rollbacks.With("auto").Value(); got != 1 {
		t.Fatalf("auto rollbacks %d, want exactly 1", got)
	}
}

func TestAutoRollbackSparesHealthyCanary(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2"}, func(c *Config) {
		c.CanaryPercent = 50
	})
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	var canaryKey uint64
	for k := uint64(0); k < 10_000; k++ {
		if r.Pick(k).Canary {
			canaryKey = k
			break
		}
	}
	for i := 0; i < 4*minCanarySamples; i++ {
		r.Pick(canaryKey).Observe("ok", time.Millisecond)
	}
	if pin := r.Pick(canaryKey); !pin.Canary || pin.Version != "v2" {
		t.Fatalf("healthy canary demoted: %+v", pin)
	}
	if got := r.met.rollbacks.With("auto").Value(); got != 0 {
		t.Fatalf("auto rollbacks %d, want 0", got)
	}
}

func TestObserveFeedsPerVersionCounters(t *testing.T) {
	r := newTestRegistry(t, []string{"v1"}, nil)
	if err := r.Load("v1"); err != nil {
		t.Fatal(err)
	}
	pin := r.Active()
	pin.Observe("ok", time.Millisecond)
	pin.Observe("deadline", 2*time.Millisecond)
	vs, err := r.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Requests != 2 || vs[0].Degraded != 1 {
		t.Fatalf("version status %+v", vs)
	}
	if got := r.met.requests.With("v1").Value(); got != 2 {
		t.Fatalf("requests{v1} %d", got)
	}
	if got := r.met.degraded.With("v1").Value(); got != 1 {
		t.Fatalf("degraded{v1} %d", got)
	}
	if got := r.met.latency.With("v1").Count(); got != 2 {
		t.Fatalf("latency{v1} count %d", got)
	}
}

func TestMetricsVisibleAtLoadTime(t *testing.T) {
	// The CI smoke job asserts both version labels on /metrics right after a
	// load, before the new version has served anything — the series must be
	// created eagerly at zero.
	reg := obs.NewRegistry()
	r := newTestRegistry(t, []string{"v1", "v2"}, func(c *Config) { c.Registry = reg })
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`rapid_model_requests_total{version="v1"} 0`,
		`rapid_model_requests_total{version="v2"} 0`,
		`rapid_model_request_latency_seconds_count{version="v2"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestOnSwapFiresOnEveryTransition: the swap hook (the serving layer's
// state-cache invalidation point) must fire on every lifecycle publish —
// activate, stage, promote, rollback — and never spuriously.
func TestOnSwapFiresOnEveryTransition(t *testing.T) {
	r := newTestRegistry(t, []string{"v1", "v2"}, nil)
	swaps := 0
	r.SetOnSwap(func() { swaps++ })

	steps := []struct {
		op   func() error
		want int
	}{
		{func() error { return r.Load("v1") }, 1},                // activate
		{func() error { return r.Load("v2") }, 2},                // stage candidate
		{func() error { return r.Promote("v2") }, 3},             // promote
		{func() error { _, err := r.Rollback(); return err }, 4}, // revert to v1
		{func() error { _, err := r.Rollback(); return err }, 4}, // nothing left: no swap
	}
	for i, s := range steps {
		err := s.op()
		if i == len(steps)-1 {
			if err == nil {
				t.Fatal("empty rollback should conflict")
			}
		} else if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if swaps != s.want {
			t.Fatalf("step %d: %d swaps, want %d", i, swaps, s.want)
		}
	}
}
