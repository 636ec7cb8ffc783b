package feedback

import "repro/internal/obs"

// metrics is the feedback subsystem's metric set, registered beside the
// serving metrics on one obs.Registry so the process exposes a single
// /metrics namespace. Same eager-visibility rule as internal/serve: every
// series a dashboard would alert on exists at zero from process start.
type metrics struct {
	events   *obs.CounterVec // ingested events by result
	clicks   *obs.Counter    // events with at least one click
	queue    *obs.Gauge      // ingest queue depth
	logBytes *obs.Gauge
	logSegs  *obs.Gauge
	logRecs  *obs.Gauge
	appended *obs.Counter

	banditServed  *obs.CounterVec // requests served by a bandit arm
	banditPulls   *obs.CounterVec // rewarded pulls by arm
	banditReward  *obs.Counter    // cumulative reward (clicked events credited)
	banditUpdates *obs.Counter
	banditRegret  *obs.Gauge // estimated cumulative regret
}

func newMetrics(r *obs.Registry) *metrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	m := &metrics{
		events: r.CounterVec("rapid_feedback_events_total",
			"Feedback events by ingest result: ok (correlated + logged), uncorrelated (unknown or evicted request id, still logged), error (append failed).", "result"),
		clicks: r.Counter("rapid_feedback_clicks_total",
			"Ingested feedback events carrying at least one click."),
		queue: r.Gauge("rapid_feedback_queue_depth",
			"Feedback events waiting in the bounded ingest queue."),
		logBytes: r.Gauge("rapid_feedback_log_bytes",
			"Bytes retained in the feedback event log across segments."),
		logSegs: r.Gauge("rapid_feedback_log_segments",
			"Segment files retained in the feedback event log."),
		logRecs: r.Gauge("rapid_feedback_log_records",
			"Event records retained in the feedback event log."),
		appended: r.Counter("rapid_feedback_appended_total",
			"Event records durably appended to the feedback log."),
		banditServed: r.CounterVec("rapid_bandit_served_total",
			"Requests served by a bandit λ arm, by arm label.", "arm"),
		banditPulls: r.CounterVec("rapid_bandit_pulls_total",
			"Feedback-rewarded bandit pulls, by arm label.", "arm"),
		banditReward: r.Counter("rapid_bandit_reward_total",
			"Cumulative bandit reward (feedback events with a click, credited to their arm)."),
		banditUpdates: r.Counter("rapid_bandit_updates_total",
			"Bandit policy updates applied from ingested feedback."),
		banditRegret: r.Gauge("rapid_bandit_estimated_regret",
			"Estimated cumulative bandit regret (sum of best-empirical-mean minus observed reward); sublinear growth means the policy is converging."),
	}
	// Eager label creation so "no traffic" reads as zero, not as absence.
	m.events.With("ok")
	m.events.With("uncorrelated")
	m.events.With("error")
	return m
}
