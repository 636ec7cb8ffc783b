package rerank

import (
	"math"
	"testing"
)

func finiteParams(t *testing.T, m ListwiseModel) {
	t.Helper()
	for _, p := range m.Params().All() {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("parameter %s contains non-finite value", p.Name)
			}
		}
	}
}

// guardTotals sums the NaN/Inf guard counters over every observed epoch.
func guardTotals(rec *recordingObserver) (skipped, dropped int) {
	for _, es := range rec.got {
		skipped += es.SkippedInstances
		dropped += es.DroppedSteps
	}
	return skipped, dropped
}

// TestTrainSkipsNonFiniteLoss: an instance whose features are poisoned with
// NaN must be skipped and counted, without corrupting the parameters or the
// reported epoch loss.
func TestTrainSkipsNonFiniteLoss(t *testing.T) {
	train := testInstances(t, 12, true)
	poisoned := train[3]
	orig := poisoned.ItemFeat
	poisoned.ItemFeat = func(id int) []float64 {
		f := append([]float64(nil), orig(id)...)
		f[0] = math.NaN()
		return f
	}
	m := newLinearModel(train[0].FeatureDim(), 17)
	rec := &recordingObserver{}
	cfg := TrainConfig{Epochs: 3, LR: 0.02, BatchSize: 4, ClipNorm: 5, Seed: 9, Observer: rec}
	loss, err := TrainListwise(m, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if skipped, _ := guardTotals(rec); skipped != cfg.Epochs {
		t.Fatalf("skipped %d instances, want %d (one per epoch)", skipped, cfg.Epochs)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("final loss %v not finite", loss)
	}
	finiteParams(t, m)
}

// TestTrainDropsNonFiniteStep: a non-finite accumulated gradient must drop
// the optimizer step (leaving values untouched) rather than poisoning Adam
// state.
func TestTrainDropsNonFiniteStep(t *testing.T) {
	train := testInstances(t, 4, true)
	m := newLinearModel(train[0].FeatureDim(), 21)
	before := append([]float64(nil), m.Params().All()[0].Value.Data...)
	// Pre-poison the gradient buffer: the first accumulation step inherits
	// the NaN and must be dropped wholesale.
	m.Params().All()[0].Grad.Data[0] = math.NaN()
	rec := &recordingObserver{}
	cfg := TrainConfig{Epochs: 1, LR: 0.02, BatchSize: len(train), Seed: 9, Observer: rec}
	if _, err := TrainListwise(m, train, cfg); err != nil {
		t.Fatal(err)
	}
	if _, dropped := guardTotals(rec); dropped != 1 {
		t.Fatalf("dropped %d steps, want 1", dropped)
	}
	after := m.Params().All()[0].Value.Data
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("dropped step still mutated parameters")
		}
	}
	finiteParams(t, m)
	// The guard must have zeroed the buffers so the next run is clean.
	for _, g := range m.Params().All()[0].Grad.Data {
		if g != 0 {
			t.Fatalf("gradient buffer not zeroed after dropped step: %v", g)
		}
	}
}
