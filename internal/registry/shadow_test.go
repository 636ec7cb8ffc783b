package registry

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rerank"
)

// shadowInstance builds an instance from the synthetic golden generator so
// shadow tests score realistic geometry without hand-rolling features. It is
// longer than shadowK, so overlap@k compares a strict top-k of the list.
func shadowInstance(t *testing.T) *rerank.Instance {
	t.Helper()
	req := syntheticGolden(testGeometry(), 1, shadowK+4)[0]
	inst, err := engine.ToInstance(testGeometry(), &req)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func newShadowRegistry(t *testing.T, loader func(string) (engine.Scorer, engine.Manifest, error)) *Registry {
	t.Helper()
	return newTestRegistry(t, []string{"v1", "v2"}, func(c *Config) {
		c.Shadow = true
		if loader != nil {
			c.Loader = loader
		}
	})
}

func TestShadowScoresCandidateOffPath(t *testing.T) {
	r := newShadowRegistry(t, nil)
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	// A non-canary pick while a candidate is staged must carry a shadow hook;
	// canary picks must not (the candidate already scores those for real).
	pin := r.Pick(9_999) // CanaryPercent defaults to 0 here: never canary
	if pin.Canary {
		t.Fatal("unexpected canary pick")
	}
	if pin.Shadow == nil {
		t.Fatal("non-canary pick has no shadow hook while a candidate is staged")
	}

	inst := shadowInstance(t)
	primary := stubScorer{name: "v1"}.Scores(inst)
	for i := 0; i < 8; i++ {
		pin.Shadow(inst, primary)
	}
	r.Close() // drains the pool
	scored := r.met.shadowScored.Value()
	shed := r.met.shadowShed.Value()
	if scored+shed != 8 {
		t.Fatalf("scored %d + shed %d != 8 submissions", scored, shed)
	}
	if scored == 0 {
		t.Fatal("every shadow job was shed")
	}
	if got := r.met.shadowDivergence.Count(); got != scored {
		t.Fatalf("divergence observations %d, want %d", got, scored)
	}
	if got := r.met.shadowOverlap.Count(); got != scored {
		t.Fatalf("overlap observations %d, want %d", got, scored)
	}
	if got := r.met.shadowILD.Count(); got != scored {
		t.Fatalf("ILD observations %d, want %d", got, scored)
	}
	// The stub candidate scores identically to the primary: divergence must be
	// exactly zero and the top-k overlap total — a smoke check that the
	// comparison is aligned with inst.Items, not shifted.
	if sum := r.met.shadowDivergence.Sum(); sum != 0 {
		t.Fatalf("identical models diverged by %v", sum)
	}
	if o := r.met.shadowOverlap; o.Sum() != float64(o.Count()) {
		t.Fatalf("identical models overlap %v/%d", o.Sum(), o.Count())
	}
}

func TestShadowShedsWhenSaturated(t *testing.T) {
	block := make(chan struct{})
	r := newShadowRegistry(t, func(modelPath string) (engine.Scorer, engine.Manifest, error) {
		label := labelFromModelPath(modelPath)
		s := stubScorer{name: label}
		if label == "v2" {
			// The candidate's scorer passes warm-up (its free calls) and then
			// parks every shadow worker until released.
			return &blockingScorer{stubScorer: s, gate: block, free: warmupRequests},
				engine.Manifest{Dataset: label, Config: testGeometry()}, nil
		}
		return s, engine.Manifest{Dataset: label, Config: testGeometry()}, nil
	})
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	pin := r.Pick(0)
	inst := shadowInstance(t)
	primary := stubScorer{name: "v1"}.Scores(inst)

	// One job parks each worker and the queue holds shadowQueue more;
	// everything past that must be shed immediately, never queued or
	// blocked.
	const extra = 45
	done := make(chan struct{})
	go func() {
		for i := 0; i < shadowWorkers+shadowQueue+extra; i++ {
			pin.Shadow(inst, primary)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shadow submission blocked the caller")
	}
	// At most shadowWorkers in flight + shadowQueue queued can be pending;
	// the other ≥ extra must have been shed on the spot.
	if shed := r.met.shadowShed.Value(); shed < extra {
		t.Fatalf("saturated pool shed only %d of %d submissions", shed, shadowWorkers+shadowQueue+extra)
	}
	close(block)
	r.Close()
	if scored := r.met.shadowScored.Value(); scored == 0 {
		t.Fatal("released pool never scored the queued jobs")
	}
}

// blockingScorer passes its first `free` calls (warm-up) and then blocks on
// gate, pinning the shadow worker that picked it up.
type blockingScorer struct {
	stubScorer
	gate  chan struct{}
	free  int32
	calls atomic.Int32
}

func (b *blockingScorer) Scores(inst *rerank.Instance) []float64 {
	if b.calls.Add(1) > b.free {
		<-b.gate
	}
	return b.stubScorer.Scores(inst)
}

func (b *blockingScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return b.Scores(inst), nil
}

func TestShadowSkipsIncompatibleGeometry(t *testing.T) {
	other := testGeometry()
	other.UserDim = 9
	r := newShadowRegistry(t, func(modelPath string) (engine.Scorer, engine.Manifest, error) {
		label := labelFromModelPath(modelPath)
		man := engine.Manifest{Dataset: label, Config: testGeometry()}
		if label == "v2" {
			man.Config = other // candidate cannot score the active's instances
		}
		// Warm-up synthesizes from the candidate's own manifest, so the
		// incompatible candidate still loads cleanly.
		return stubScorer{name: label}, man, nil
	})
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	pin := r.Pick(0)
	inst := shadowInstance(t)
	pin.Shadow(inst, stubScorer{name: "v1"}.Scores(inst))
	r.Close()
	if got := r.met.shadowIncompatible.Value(); got != 1 {
		t.Fatalf("incompatible counter %d, want 1", got)
	}
	if got := r.met.shadowScored.Value(); got != 0 {
		t.Fatalf("incompatible candidate scored %d jobs", got)
	}
}

func TestShadowRecoversPanickingCandidate(t *testing.T) {
	r := newShadowRegistry(t, func(modelPath string) (engine.Scorer, engine.Manifest, error) {
		label := labelFromModelPath(modelPath)
		if label == "v2" {
			return &panicScorer{free: warmupRequests}, engine.Manifest{Dataset: label, Config: testGeometry()}, nil
		}
		return stubScorer{name: label}, engine.Manifest{Dataset: label, Config: testGeometry()}, nil
	})
	for _, l := range []string{"v1", "v2"} {
		if err := r.Load(l); err != nil {
			t.Fatal(err)
		}
	}
	pin := r.Pick(0)
	inst := shadowInstance(t)
	primary := stubScorer{name: "v1"}.Scores(inst)
	pin.Shadow(inst, primary)
	r.Close()
	if got := r.met.shadowErrors.Value(); got != 1 {
		t.Fatalf("shadow errors %d, want 1 (recovered panic)", got)
	}
}

// panicScorer survives warm-up (its first `free` calls succeed) and then
// panics — the shape of a model that breaks only on live traffic.
type panicScorer struct {
	free  int32
	calls atomic.Int32
}

func (p *panicScorer) Name() string { return "panic" }
func (p *panicScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	if p.calls.Add(1) > p.free {
		panic("candidate model bug")
	}
	return make([]float64, len(inst.Items)), nil
}
