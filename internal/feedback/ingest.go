package feedback

import (
	"sync"

	"repro/internal/bandit"
	"repro/internal/engine"
	"repro/internal/obs"
)

const (
	// defaultQueueSize bounds the ingest queue. A full queue makes Submit
	// return engine.ErrFeedbackBusy, which the handler maps to 429 —
	// feedback is shed under pressure, never allowed to block serving.
	defaultQueueSize = 1024
	// defaultTrackCap bounds the request-id correlation table (entries,
	// FIFO eviction). An evicted or unknown id still ingests the event,
	// just uncorrelated (no user, no arm credit).
	defaultTrackCap = 65536
)

// IngestConfig configures an Ingestor.
type IngestConfig struct {
	// Registry receives the feedback metrics; nil means a private one. Pass
	// the serving registry so /metrics carries every namespace.
	Registry *obs.Registry

	// queueSize and trackCap override defaultQueueSize and defaultTrackCap
	// when positive (tests shrink them).
	queueSize, trackCap int
}

func (c IngestConfig) withDefaults() IngestConfig {
	if c.queueSize <= 0 {
		c.queueSize = defaultQueueSize
	}
	if c.trackCap <= 0 {
		c.trackCap = defaultTrackCap
	}
	return c
}

// tracked is one correlation entry: which (user, version) a request id was
// served from. Written by the request handler at response time, consumed by
// the ingest goroutine when the feedback event arrives.
type tracked struct {
	user    uint64
	version string
}

// Ingestor implements engine.FeedbackSink: it joins POST /v1/feedback events
// to their served responses, appends the joined record to the durable Log,
// and credits the bandit policy. The hot-path methods (Track, Submit) do a
// short mutex section and a non-blocking channel send respectively; all disk
// and learning work happens on the single ingest goroutine, so feedback can
// never add latency to the scoring path.
type Ingestor struct {
	cfg    IngestConfig
	log    *Log
	policy *bandit.Policy // nil when the λ bandit is off
	met    *metrics

	mu    sync.Mutex
	track map[string]tracked
	order []string // FIFO eviction ring over track keys
	head  int

	ch   chan engine.FeedbackEvent
	done chan struct{}
}

// NewIngestor starts the ingest goroutine over an open log. policy may be
// nil (feedback is then logged and replayed but no arm learns online). The
// ingestor takes ownership of the log: Close drains the queue and closes it.
func NewIngestor(l *Log, policy *bandit.Policy, cfg IngestConfig) *Ingestor {
	cfg = cfg.withDefaults()
	in := &Ingestor{
		cfg:    cfg,
		log:    l,
		policy: policy,
		met:    newMetrics(cfg.Registry),
		track:  make(map[string]tracked, cfg.trackCap),
		order:  make([]string, 0, cfg.trackCap),
		ch:     make(chan engine.FeedbackEvent, cfg.queueSize),
		done:   make(chan struct{}),
	}
	if policy != nil {
		// Eager label creation for every arm, same visibility rule as serve.
		for _, a := range policy.Arms() {
			in.met.banditServed.With(a.Label())
			in.met.banditPulls.With(a.Label())
		}
	}
	in.publishLogStats()
	go in.run()
	return in
}

// Track implements engine.FeedbackSink: called by the request handler just
// before the response encodes, it records the served (user, version) under
// the issued request id. Bounded: beyond the correlation cap the oldest
// entry is evicted (its late feedback then ingests uncorrelated).
func (in *Ingestor) Track(requestID string, user uint64, version string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, exists := in.track[requestID]; !exists {
		if len(in.track) >= in.cfg.trackCap {
			evict := in.order[in.head]
			in.order[in.head] = requestID
			in.head = (in.head + 1) % len(in.order)
			delete(in.track, evict)
		} else {
			in.order = append(in.order, requestID)
		}
	}
	in.track[requestID] = tracked{user: user, version: version}
	if in.policy != nil {
		if _, ok := in.policy.ArmIndex(version); ok {
			in.met.banditServed.With(version).Inc()
		}
	}
}

// Submit implements engine.FeedbackSink: a non-blocking enqueue that reports
// engine.ErrFeedbackBusy when the bounded queue is full.
func (in *Ingestor) Submit(ev engine.FeedbackEvent) error {
	select {
	case in.ch <- ev:
		in.met.queue.Set(float64(len(in.ch)))
		return nil
	default:
		return engine.ErrFeedbackBusy
	}
}

// run is the single ingest goroutine: correlate, persist, learn.
func (in *Ingestor) run() {
	defer close(in.done)
	for wire := range in.ch {
		in.met.queue.Set(float64(len(in.ch)))
		in.ingest(wire)
	}
}

func (in *Ingestor) ingest(wire engine.FeedbackEvent) {
	ev := Event{
		RequestID: wire.RequestID,
		Arm:       -1,
		UnixMS:    nowMS(),
		Items:     wire.Items,
		Clicks:    wire.Clicks,
	}
	in.mu.Lock()
	t, correlated := in.track[wire.RequestID]
	in.mu.Unlock()
	if correlated {
		ev.User = t.user
		ev.Version = t.version
	} else if wire.ModelVersion != "" {
		// The client's advisory copy is better than nothing for an evicted
		// entry, but carries no user — the event stays arm-uncredited.
		ev.Version = wire.ModelVersion
	}
	if in.policy != nil && correlated {
		if arm, ok := in.policy.ArmIndex(ev.Version); ok {
			ev.Arm = arm
			ev.Lambda = in.policy.Arms()[arm].Lambda
		}
	}
	if _, err := in.log.Append(&ev); err != nil {
		in.met.events.With("error").Inc()
		return
	}
	in.met.appended.Inc()
	in.publishLogStats()
	if correlated {
		in.met.events.With("ok").Inc()
	} else {
		in.met.events.With("uncorrelated").Inc()
	}
	reward := 0.0
	if ev.clicked() {
		in.met.clicks.Inc()
		reward = 1
	}
	if ev.Arm >= 0 && in.policy != nil {
		in.policy.Update(ev.User, ev.Arm, reward)
		in.met.banditPulls.With(in.policy.Arms()[ev.Arm].Label()).Inc()
		if reward > 0 {
			in.met.banditReward.Inc()
		}
		in.met.banditUpdates.Inc()
		in.met.banditRegret.Set(in.policy.Snapshot().CumRegret)
	}
}

func (in *Ingestor) publishLogStats() {
	st := in.log.stat()
	in.met.logBytes.Set(float64(st.Bytes))
	in.met.logSegs.Set(float64(st.Segments))
	in.met.logRecs.Set(float64(st.Records))
}

// Close stops accepting events, drains the queue, and closes the log. After
// Close, Submit panics (the serving layer drains before the ingestor closes,
// so ordering is the caller's shutdown sequence: server first, then this).
func (in *Ingestor) Close() error {
	close(in.ch)
	<-in.done
	return in.log.Close()
}
