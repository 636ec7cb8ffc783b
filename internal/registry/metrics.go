package registry

import "repro/internal/obs"

// Bounds for the shadow divergence histograms. Overlap is a fraction in
// [0, 1]; score divergence and ILD live on the models' score/feature scales,
// so the buckets span decades around 1.
var (
	fractionBuckets   = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	divergenceBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
	ildBuckets        = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
)

// lifecycleMetrics is the model lifecycle metric set: per-version traffic
// series (labeled by version so canary and active are comparable on one
// dashboard), lifecycle transition counters, warm-up outcomes and the
// shadow-mode divergence histograms.
type lifecycleMetrics struct {
	requests *obs.CounterVec   // per-version requests
	degraded *obs.CounterVec   // per-version degraded (non-ok) outcomes
	latency  *obs.HistogramVec // per-version end-to-end latency

	loads          *obs.Counter
	promotions     *obs.Counter
	rollbacks      *obs.CounterVec // reason: manual | auto
	warmupFailures *obs.Counter
	warmupLatency  *obs.Histogram

	shadowScored       *obs.Counter
	shadowShed         *obs.Counter
	shadowErrors       *obs.Counter
	shadowIncompatible *obs.Counter
	shadowDivergence   *obs.Histogram
	shadowOverlap      *obs.Histogram
	shadowILD          *obs.Histogram
}

func newLifecycleMetrics(r *obs.Registry) *lifecycleMetrics {
	return &lifecycleMetrics{
		requests: r.CounterVec("rapid_model_requests_total",
			"Requests served, by model version (canary and active both count here).", "version"),
		degraded: r.CounterVec("rapid_model_degraded_total",
			"Degraded (non-ok) request outcomes, by model version — the canary auto-rollback signal.", "version"),
		latency: r.HistogramVec("rapid_model_request_latency_seconds",
			"End-to-end request latency, by model version.", "version", nil),
		loads: r.Counter("rapid_model_loads_total",
			"Model versions loaded and warm-up validated (admin load or startup activation)."),
		promotions: r.Counter("rapid_model_promotions_total",
			"Candidate versions promoted to active."),
		rollbacks: r.CounterVec("rapid_model_rollbacks_total",
			"Rollbacks by trigger: manual (admin API) or auto (canary degrade-rate excess).", "reason"),
		warmupFailures: r.Counter("rapid_model_warmup_failures_total",
			"Version loads rejected by warm-up validation (non-finite or missing scores, or latency budget)."),
		warmupLatency: r.Histogram("rapid_model_warmup_latency_seconds",
			"Per-request scoring latency during warm-up golden replay.", nil),
		shadowScored: r.Counter("rapid_shadow_scored_total",
			"Requests shadow-scored by the candidate off the request path."),
		shadowShed: r.Counter("rapid_shadow_shed_total",
			"Shadow scoring requests shed because the bounded queue was full."),
		shadowErrors: r.Counter("rapid_shadow_errors_total",
			"Shadow scoring passes that panicked or returned malformed scores."),
		shadowIncompatible: r.Counter("rapid_shadow_incompatible_total",
			"Shadow requests skipped because the candidate's geometry cannot score the active model's instance."),
		shadowDivergence: r.Histogram("rapid_shadow_score_divergence",
			"Mean absolute per-item score difference between candidate and active.", divergenceBuckets),
		shadowOverlap: r.Histogram("rapid_shadow_rank_overlap_at_k",
			"Fraction of the active model's top-k items also in the candidate's top-k.", fractionBuckets),
		shadowILD: r.Histogram("rapid_shadow_ild_at_k",
			"Intra-list distance (ILD@k) of the candidate's top-k — the online diversity signal vs the active model's ranking.", ildBuckets),
	}
}
