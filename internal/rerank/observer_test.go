package rerank

import (
	"math"
	"testing"
	"time"
)

// recordingObserver accumulates every EpochStats it receives.
type recordingObserver struct {
	got []EpochStats
}

func (r *recordingObserver) ObserveEpoch(es EpochStats) { r.got = append(r.got, es) }

// TestObserverMatchesOnEpoch is the contract table for TrainConfig.Observer:
// across batch shapes, worker counts and validation settings, the observer
// fires exactly once per completed epoch, in order, its last loss bitwise
// the one TrainListwise returns, with per-epoch instance accounting that
// covers the training set, and a validation loss exactly when a split is
// configured. Its name predates the removal of TrainConfig.OnEpoch.
func TestObserverMatchesOnEpoch(t *testing.T) {
	cases := []struct {
		name      string
		epochs    int
		batch     int
		workers   int
		validFrac float64
	}{
		{"batch1 sequential", 3, 1, 1, 0},
		{"batch4 parallel", 3, 4, 4, 0},
		{"batch exceeds set", 2, 64, 0, 0},
		{"with validation", 4, 4, 2, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			insts := testInstances(t, 16, true)
			m := newLinearModel(insts[0].FeatureDim(), 7)
			rec := &recordingObserver{}
			cfg := TrainConfig{
				Epochs: tc.epochs, LR: 0.01, BatchSize: tc.batch,
				Workers: tc.workers, Seed: 3, ValidFrac: tc.validFrac,
				Observer: rec,
			}
			loss, err := TrainListwise(m, insts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Early stopping may end the run short; the observer must have
			// fired for every epoch however far it got.
			if len(rec.got) == 0 {
				t.Fatal("observer never fired")
			}
			if last := rec.got[len(rec.got)-1].Loss; last != loss {
				t.Fatalf("last observed loss %v != returned loss %v", last, loss)
			}
			trainN := 16
			if tc.validFrac > 0 {
				trainN -= int(float64(trainN) * tc.validFrac)
			}
			for i, es := range rec.got {
				if es.Epoch != i || es.Epochs != tc.epochs {
					t.Fatalf("epoch numbering %d/%d at position %d", es.Epoch, es.Epochs, i)
				}
				if es.Instances != trainN || es.SkippedInstances != 0 {
					t.Fatalf("epoch %d: instances=%d skipped=%d, want %d/0", i, es.Instances, es.SkippedInstances, trainN)
				}
				wantSteps := (trainN + tc.batch - 1) / tc.batch
				if es.Steps+es.DroppedSteps != wantSteps {
					t.Fatalf("epoch %d: steps=%d dropped=%d, want %d total", i, es.Steps, es.DroppedSteps, wantSteps)
				}
				if es.Duration <= 0 {
					t.Fatalf("epoch %d: non-positive duration %v", i, es.Duration)
				}
				if hasValid := !math.IsNaN(es.ValidLoss); hasValid != (tc.validFrac > 0) {
					t.Fatalf("epoch %d: ValidLoss=%v with ValidFrac=%v", i, es.ValidLoss, tc.validFrac)
				}
			}
		})
	}
}

// TestObserverSkipAccounting: the NaN-loss guard's per-epoch deltas must
// reach the observer (one poisoned instance per epoch here).
func TestObserverSkipAccounting(t *testing.T) {
	insts := testInstances(t, 8, true)
	poisoned := insts[2]
	orig := poisoned.ItemFeat
	poisoned.ItemFeat = func(id int) []float64 {
		f := append([]float64(nil), orig(id)...)
		f[0] = math.NaN()
		return f
	}
	m := newLinearModel(insts[0].FeatureDim(), 13)
	rec := &recordingObserver{}
	cfg := TrainConfig{Epochs: 2, LR: 0.01, BatchSize: 4, Seed: 9, Observer: rec}
	if _, err := TrainListwise(m, insts, cfg); err != nil {
		t.Fatal(err)
	}
	for i, es := range rec.got {
		if es.SkippedInstances != 1 || es.Instances != 7 {
			t.Fatalf("epoch %d: skipped=%d instances=%d, want 1/7", i, es.SkippedInstances, es.Instances)
		}
	}
}

// TestObserverPassive: attaching an observer must not perturb training —
// same seed, same trained parameters, bitwise.
func TestObserverPassive(t *testing.T) {
	insts := testInstances(t, 12, true)
	cfg := TrainConfig{Epochs: 3, LR: 0.02, BatchSize: 4, ClipNorm: 5, Seed: 21}

	plain := newLinearModel(insts[0].FeatureDim(), 4)
	if _, err := TrainListwise(plain, insts, cfg); err != nil {
		t.Fatal(err)
	}
	observed := newLinearModel(insts[0].FeatureDim(), 4)
	cfg.Observer = &recordingObserver{}
	if _, err := TrainListwise(observed, insts, cfg); err != nil {
		t.Fatal(err)
	}
	pa, pb := plain.Params().All(), observed.Params().All()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatalf("observer changed training: param %s[%d]", pa[i].Name, j)
			}
		}
	}
}

// TestObserverNilZeroAllocs pins that the nil-observer dispatch allocates
// nothing — the telemetry hook must be free when unused, matching the
// steady-state zero-alloc guarantees of the tape (PR2's
// TestTapeReuseSteadyStateAllocs).
func TestObserverNilZeroAllocs(t *testing.T) {
	es := EpochStats{Epoch: 1, Epochs: 8, Loss: 0.5, Duration: time.Second}
	if n := testing.AllocsPerRun(1000, func() { emitEpoch(nil, es) }); n != 0 {
		t.Fatalf("nil observer dispatch allocates %v per call", n)
	}
	// A pointer-receiver observer stored once in the interface also stays
	// alloc-free per call: EpochStats travels by value.
	rec := &recordingObserver{got: make([]EpochStats, 0, 2048)}
	var o EpochObserver = rec
	if n := testing.AllocsPerRun(1000, func() { emitEpoch(o, es) }); n != 0 {
		t.Fatalf("live observer dispatch allocates %v per call", n)
	}
}
