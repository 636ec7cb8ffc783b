package router

import (
	"sync"
	"time"
)

// breakerState is a circuit breaker's position.
type breakerState int

const (
	// breakerClosed passes traffic and counts outcomes.
	breakerClosed breakerState = iota
	// breakerOpen rejects traffic until the open interval elapses.
	breakerOpen
	// breakerHalfOpen admits a bounded number of probe requests; their
	// outcomes decide between re-closing and re-opening.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig bounds one replica's circuit breaker. The zero value is
// usable: every field falls back to the listed default.
type BreakerConfig struct {
	// Window is the sliding error-rate window (default 10s). Outcomes older
	// than Window no longer influence the trip decision.
	Window time.Duration
	// MinSamples is the fewest outcomes in the window before the error rate
	// is trusted (default 8): one failure on an idle replica must not open
	// the circuit.
	MinSamples int
	// FailureRate is the windowed failure fraction at or above which the
	// breaker opens (default 0.5).
	FailureRate float64
	// OpenFor is how long an open breaker rejects before moving to
	// half-open (default 2s).
	OpenFor time.Duration
	// HalfOpenProbes is how many concurrent trial requests half-open admits
	// (default 1); HalfOpenSuccesses consecutive successes re-close the
	// circuit (default 3), any failure re-opens it.
	HalfOpenProbes    int
	HalfOpenSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.HalfOpenSuccesses <= 0 {
		c.HalfOpenSuccesses = 3
	}
	return c
}

// breakerBuckets is the number of rotating sub-windows the sliding error
// window is tracked in. More buckets mean a smoother expiry of old outcomes
// at slightly more bookkeeping; 10 keeps the granularity at Window/10.
const breakerBuckets = 10

// breaker is one replica's circuit breaker: a time-bucketed sliding window
// of outcomes drives closed → open, a timer drives open → half-open, and
// metered trial traffic drives half-open → closed (or back to open). All
// methods are safe for concurrent use.
type breaker struct {
	cfg BreakerConfig
	now func() time.Time

	mu        sync.Mutex
	state     breakerState
	buckets   [breakerBuckets]bucket
	openedAt  time.Time
	inFlight  int // half-open trial requests currently admitted
	successes int // consecutive half-open successes

	// onTransition, if non-nil, observes every state change (metrics).
	onTransition func(from, to breakerState)
}

type bucket struct {
	start    time.Time
	ok, fail int
}

func newBreaker(cfg BreakerConfig, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{cfg: cfg.withDefaults(), now: now}
}

// allow reports whether a request may be sent to this replica now. In the
// half-open state an allowed request occupies one of the bounded trial
// slots; the caller must report its outcome via record (or release via
// cancelProbe if the attempt was never made).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.transition(breakerHalfOpen)
		b.inFlight = 1
		return true
	default: // half-open
		if b.inFlight >= b.cfg.HalfOpenProbes {
			return false
		}
		b.inFlight++
		return true
	}
}

// cancelProbe releases a half-open trial slot taken by allow when the
// attempt was abandoned before producing an outcome.
func (b *breaker) cancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen && b.inFlight > 0 {
		b.inFlight--
	}
}

// record feeds one attempt outcome into the breaker.
func (b *breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		if !success {
			b.trip()
			return
		}
		b.successes++
		if b.successes >= b.cfg.HalfOpenSuccesses {
			b.transition(breakerClosed)
			b.resetWindow()
		}
	case breakerClosed:
		bk := b.currentBucket()
		if success {
			bk.ok++
		} else {
			bk.fail++
			ok, fail := b.windowTotals()
			if ok+fail >= b.cfg.MinSamples &&
				float64(fail) >= b.cfg.FailureRate*float64(ok+fail) {
				b.trip()
			}
		}
	default: // open: outcomes of straggling attempts are ignored
	}
}

// forceOpen trips the breaker from outside the data path — the health
// prober calls it when a replica's probe fails hard, so traffic stops
// immediately instead of waiting for in-band failures to accumulate.
func (b *breaker) forceOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		b.trip()
	}
}

// reset closes the breaker and clears its window — used when the process
// behind a replica address is known to have been replaced, so the old
// process's failures are not held against the new one.
func (b *breaker) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.transition(breakerClosed)
	b.inFlight = 0
	b.successes = 0
	b.resetWindow()
}

// currentState reports the state, advancing open → half-open if the open
// interval has elapsed (so observers see the same state allow would).
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cfg.OpenFor {
		return breakerHalfOpen
	}
	return b.state
}

// trip moves to open and stamps the time. Callers hold b.mu.
func (b *breaker) trip() {
	b.transition(breakerOpen)
	b.openedAt = b.now()
	b.successes = 0
	b.inFlight = 0
	b.resetWindow()
}

// transition changes state and notifies the observer. Callers hold b.mu.
func (b *breaker) transition(to breakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if from == breakerOpen || from == breakerHalfOpen {
		b.successes = 0
	}
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

func (b *breaker) resetWindow() {
	for i := range b.buckets {
		b.buckets[i] = bucket{}
	}
}

// currentBucket rotates the bucket ring to now and returns the live bucket.
// Callers hold b.mu.
func (b *breaker) currentBucket() *bucket {
	span := b.cfg.Window / breakerBuckets
	now := b.now()
	start := now.Truncate(span)
	i := int(start.UnixNano()/int64(span)) % breakerBuckets
	if i < 0 {
		i += breakerBuckets
	}
	if !b.buckets[i].start.Equal(start) {
		b.buckets[i] = bucket{start: start}
	}
	return &b.buckets[i]
}

// windowTotals sums outcomes still inside the window. Callers hold b.mu.
func (b *breaker) windowTotals() (ok, fail int) {
	span := b.cfg.Window / breakerBuckets
	cutoff := b.now().Add(-b.cfg.Window)
	for i := range b.buckets {
		bk := &b.buckets[i]
		if bk.start.IsZero() || !bk.start.Add(span).After(cutoff) {
			continue
		}
		ok += bk.ok
		fail += bk.fail
	}
	return ok, fail
}
