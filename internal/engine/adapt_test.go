package engine

import (
	"context"
	"testing"

	"repro/internal/baselines"
)

// TestAdaptCancellation: a canceled context stops adapted scoring before any
// work happens.
func TestAdaptCancellation(t *testing.T) {
	inst, err := ToInstance(testConfig(), validRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := Adapt(baselines.NewMMR())
	if _, err := sc.Score(ctx, inst); err != context.Canceled {
		t.Fatalf("Score under canceled ctx: %v", err)
	}
}
