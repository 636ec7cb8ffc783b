package obs

import (
	"math"
	"time"
)

// epochSecondsBuckets are the default histogram bounds for epoch wall-clock
// time; epochs range from sub-second (tests, tiny scales) to minutes.
var epochSecondsBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300}

// TrainTelemetry is the training-side metric set: per-epoch loss and
// validation loss gauges, epoch-duration histogram, and monotone counters
// for optimizer steps and the numerical-guard events
// (rerank.EpochStats.SkippedInstances / DroppedSteps). It is deliberately
// typed on plain values so obs stays free of model-layer imports; the
// binaries adapt it to rerank's epoch-observer hook.
type TrainTelemetry struct {
	Epochs           *Counter
	Steps            *Counter
	Instances        *Counter
	SkippedInstances *Counter
	DroppedSteps     *Counter
	Loss             *Gauge
	ValidLoss        *Gauge
	EpochSeconds     *Histogram
}

// NewTrainTelemetry registers the training metric set on r.
func NewTrainTelemetry(r *Registry) *TrainTelemetry {
	return &TrainTelemetry{
		Epochs:           r.Counter("rapid_train_epochs_total", "Completed training epochs."),
		Steps:            r.Counter("rapid_train_steps_total", "Optimizer steps applied (dropped steps excluded)."),
		Instances:        r.Counter("rapid_train_instances_total", "Training instances whose loss entered the epoch mean."),
		SkippedInstances: r.Counter("rapid_train_skipped_instances_total", "Instances skipped by the NaN/Inf loss guard."),
		DroppedSteps:     r.Counter("rapid_train_dropped_steps_total", "Optimizer steps dropped by the non-finite gradient guard."),
		Loss:             r.Gauge("rapid_train_loss", "Mean training loss of the last completed epoch."),
		ValidLoss:        r.Gauge("rapid_train_valid_loss", "Validation loss of the last completed epoch (NaN without a validation split)."),
		EpochSeconds:     r.Histogram("rapid_train_epoch_seconds", "Wall-clock time per training epoch.", epochSecondsBuckets),
	}
}

// RecordEpoch folds one epoch's statistics into the metric set. validLoss
// may be NaN when the run has no validation split; the gauge then keeps its
// previous value.
func (t *TrainTelemetry) RecordEpoch(loss, validLoss float64, dur time.Duration, steps, instances, skipped, dropped int) {
	t.Epochs.Inc()
	t.Steps.Add(int64(steps))
	t.Instances.Add(int64(instances))
	t.SkippedInstances.Add(int64(skipped))
	t.DroppedSteps.Add(int64(dropped))
	t.Loss.Set(loss)
	if !math.IsNaN(validLoss) {
		t.ValidLoss.Set(validLoss)
	}
	t.EpochSeconds.ObserveDuration(dur)
}
