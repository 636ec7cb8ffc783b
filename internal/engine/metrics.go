package engine

import "repro/internal/obs"

// Metrics is the engine's metric set, registered on one obs.Registry. The
// counters are the source of truth for Stats. Fields are exported because
// the transport frontends account their own pre-engine failures (a request
// that fails JSON decoding never reaches Rerank, yet must land in the same
// request/response counters the dashboards read).
type Metrics struct {
	Requests    *obs.Counter
	Responses   *obs.CounterVec // terminal status per request
	ResponsesOK *obs.Counter    // cached Responses.With("ok")
	Degraded    *obs.CounterVec // degradation reason
	Shed        *obs.CounterVec // shed reason: backpressure, tenant_quota, draining
	ShedBack    *obs.Counter    // cached Shed.With(ShedBackpressure)
	ShedDrain   *obs.Counter    // cached Shed.With(ShedDraining)
	Panics      *obs.Counter
	BadInput    *obs.Counter
	Inflight    *obs.Gauge
	QueueWait   *obs.Histogram
	Scoring     *obs.Histogram
	Request     *obs.Histogram

	BatchRequests *obs.Counter // rerank-batch envelopes
	BatchItems    *obs.Counter // instances carried by those envelopes

	DivRequests *obs.CounterVec   // scored jobs per diversifier
	DivItems    *obs.CounterVec   // candidates re-ranked per diversifier
	DivLatency  *obs.HistogramVec // scoring wall-clock per diversifier

	Feedback   *obs.CounterVec // feedback events by terminal status
	FeedbackOK *obs.Counter    // cached Feedback.With("accepted")

	CacheHits          *obs.Counter // encoded user-state cache
	CacheMisses        *obs.Counter
	CacheDeferred      *obs.Counter
	CacheEvictions     *obs.Counter
	CacheInvalidations *obs.Counter
	CacheEntries       *obs.Gauge
	CacheBytes         *obs.Gauge

	TenantRequests *obs.CounterVec // requests by resolved tenant
	TenantShed     *obs.CounterVec // tenant-quota sheds by tenant
}

// newMetrics registers the engine metric families on r. Registration is
// idempotent per registry (obs re-registration returns the existing metric),
// so an engine and its frontends may share one registry freely.
func newMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{
		Requests: r.Counter("rapid_http_requests_total",
			"Re-rank requests received (any outcome)."),
		Responses: r.CounterVec("rapid_http_responses_total",
			"Finished re-rank requests by terminal status: ok, degraded, bad_input, too_large, shed, canceled.", "status"),
		Degraded: r.CounterVec("rapid_degraded_total",
			"Degraded (initial-order fallback) responses by reason: deadline, error, panic.", "reason"),
		Shed: r.CounterVec("rapid_shed_total",
			"Requests shed by reason: backpressure (429, no scoring slot freed within the queue wait), tenant_quota (429, the request's tenant is at its concurrency quota; counts envelope items) or draining (503, the server is going away).", "reason"),
		Panics: r.Counter("rapid_panics_recovered_total",
			"Panics recovered in the handler chain or the scoring goroutine."),
		BadInput: r.Counter("rapid_bad_input_total",
			"Requests rejected with 4xx for malformed or geometry-mismatched input."),
		Inflight: r.Gauge("rapid_inflight_scoring",
			"Scoring passes currently executing (includes deadline-abandoned passes until they finish)."),
		QueueWait: r.Histogram("rapid_queue_wait_seconds",
			"Time an admitted request waited for a scoring slot.", nil),
		Scoring: r.Histogram("rapid_scoring_latency_seconds",
			"Model scoring wall-clock time, measured to completion even past the budget.", nil),
		Request: r.Histogram("rapid_request_latency_seconds",
			"End-to-end re-rank request latency.", nil),
		BatchRequests: r.Counter("rapid_batch_requests_total",
			"Multi-instance /v1/rerank:batch envelopes received."),
		BatchItems: r.Counter("rapid_batch_items_total",
			"Instances carried by /v1/rerank:batch envelopes."),
		// The diversifier family is registered even when only neural versions
		// are resident, so a canary dashboard can tell "no diversifier traffic"
		// (series at zero) from "metrics missing" — same eager-visibility rule
		// as the cache family below.
		DivRequests: r.CounterVec("rapid_diversifier_requests_total",
			"Requests scored by a classic diversifier version, by diversifier name.", "diversifier"),
		DivItems: r.CounterVec("rapid_diversifier_items_total",
			"Candidates re-ranked by a classic diversifier version, by diversifier name.", "diversifier"),
		DivLatency: r.HistogramVec("rapid_diversifier_latency_seconds",
			"Scoring wall-clock of batches served by a classic diversifier version, by diversifier name.", "diversifier", nil),
		// The feedback family is registered even without a sink so dashboards
		// can tell "feedback surface off" from "metrics missing" — the same
		// eager-visibility rule as the cache family below.
		Feedback: r.CounterVec("rapid_feedback_requests_total",
			"POST /v1/feedback requests by terminal status: accepted, bad_input, shed, error.", "status"),
		// The state-cache family is registered even with the cache disabled so
		// dashboards can tell "cache off" (all-zero series) from "metrics
		// missing" — the same eager-visibility rule as the shed series below.
		CacheHits: r.Counter("rapid_state_cache_hits_total",
			"Scoring passes that reused a cached encoded user state."),
		CacheMisses: r.Counter("rapid_state_cache_misses_total",
			"State-cache lookups that found no usable entry."),
		CacheDeferred: r.Counter("rapid_state_cache_deferred_total",
			"Encoded user states left uncached on a user's first sighting; the doorkeeper admits the next one."),
		CacheEvictions: r.Counter("rapid_state_cache_evictions_total",
			"Encoded user states evicted by the cache's memory budget (LRU)."),
		CacheInvalidations: r.Counter("rapid_state_cache_invalidations_total",
			"Whole-cache flushes triggered by model lifecycle transitions."),
		CacheEntries: r.Gauge("rapid_state_cache_entries",
			"Encoded user states currently resident in the cache."),
		CacheBytes: r.Gauge("rapid_state_cache_bytes",
			"Estimated bytes of encoded user states resident in the cache."),
		// Tenant families are eagerly registered with the default label so a
		// single-tenant deployment still exposes the series at zero.
		TenantRequests: r.CounterVec("rapid_tenant_requests_total",
			"Re-rank requests by resolved tenant (the default tenant serves requests with no tenant field).", "tenant"),
		TenantShed: r.CounterVec("rapid_tenant_shed_total",
			"Requests shed by a per-tenant quota, by tenant.", "tenant"),
	}
	// Eager label creation: both shed series are visible on /metrics at zero,
	// so a router's dashboards can tell "never shed" from "series missing".
	m.ShedBack = m.Shed.With(ShedBackpressure)
	m.ShedDrain = m.Shed.With(ShedDraining)
	m.ResponsesOK = m.Responses.With("ok")
	m.FeedbackOK = m.Feedback.With("accepted")
	m.Feedback.With("shed")
	m.TenantRequests.With(defaultTenant)
	m.TenantShed.With(defaultTenant)
	return m
}
