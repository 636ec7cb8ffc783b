package rerank

import (
	"testing"
)

func TestValidationLoss(t *testing.T) {
	insts := testInstances(t, 6, true)
	m := newLinearModel(insts[0].FeatureDim(), 9)
	vl := validationLoss(m, insts)
	if vl <= 0 {
		t.Fatalf("validation loss %v", vl)
	}
	if got := validationLoss(m, nil); got != 0 {
		t.Fatalf("empty validation loss %v", got)
	}
}

func TestEarlyStoppingRestoresBest(t *testing.T) {
	// With a destructively large learning rate, later epochs make the model
	// worse; early stopping must restore the best-validation parameters and
	// therefore end with a validation loss no worse than the free-running
	// twin.
	insts := testInstances(t, 24, true)
	valid := insts[18:]

	free := newLinearModel(insts[0].FeatureDim(), 10)
	cfgFree := TrainConfig{Epochs: 12, LR: 0.8, BatchSize: 2, Seed: 5}
	if _, err := TrainListwise(free, insts, cfgFree); err != nil {
		t.Fatal(err)
	}

	stopped := newLinearModel(insts[0].FeatureDim(), 10)
	cfgStop := cfgFree
	cfgStop.ValidFrac = 0.25 // uses the same tail instances as `valid`
	cfgStop.Patience = 2
	if _, err := TrainListwise(stopped, insts, cfgStop); err != nil {
		t.Fatal(err)
	}

	lFree := validationLoss(free, valid)
	lStop := validationLoss(stopped, valid)
	if lStop > lFree+1e-9 {
		t.Fatalf("early stopping ended worse: %v vs free-running %v", lStop, lFree)
	}
}

func TestEarlyStoppingSmallSetsDisabled(t *testing.T) {
	// Fewer than 4 instances: the validation split is skipped silently.
	insts := testInstances(t, 3, true)
	m := newLinearModel(insts[0].FeatureDim(), 11)
	cfg := TrainConfig{Epochs: 2, LR: 0.01, BatchSize: 1, Seed: 1, ValidFrac: 0.5}
	if _, err := TrainListwise(m, insts, cfg); err != nil {
		t.Fatal(err)
	}
}
