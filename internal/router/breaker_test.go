package router

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable time source for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(clk *fakeClock) *breaker {
	return newBreaker(BreakerConfig{
		Window:            10 * time.Second,
		MinSamples:        4,
		FailureRate:       0.5,
		OpenFor:           2 * time.Second,
		HalfOpenProbes:    1,
		HalfOpenSuccesses: 2,
	}, clk.now)
}

// TestBreakerLifecycle walks the full closed → open → half-open → closed
// circle.
func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)

	// Closed: passes traffic, absorbs scattered failures below MinSamples.
	if !b.allow() {
		t.Fatal("closed breaker rejected")
	}
	b.record(false)
	b.record(false)
	b.record(false)
	if b.currentState() != breakerClosed {
		t.Fatalf("tripped below MinSamples: %v", b.currentState())
	}
	// Fourth sample pushes the window to 4 failures / 4 samples ≥ 50%.
	b.record(false)
	if b.currentState() != breakerOpen {
		t.Fatalf("state after error burst = %v, want open", b.currentState())
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request")
	}

	// After OpenFor the breaker half-opens and admits exactly one probe.
	clk.advance(2 * time.Second)
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state after OpenFor = %v, want half-open", b.currentState())
	}
	if !b.allow() {
		t.Fatal("half-open rejected the first probe")
	}
	if b.allow() {
		t.Fatal("half-open admitted a second concurrent probe")
	}

	// One success is not enough to close; the second is.
	b.record(true)
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("closed after 1 of 2 successes: %v", b.currentState())
	}
	if !b.allow() {
		t.Fatal("half-open rejected the second probe")
	}
	b.record(true)
	if b.currentState() != breakerClosed {
		t.Fatalf("state after probe successes = %v, want closed", b.currentState())
	}
	// The error window restarts clean: old failures are gone.
	b.record(false)
	if b.currentState() != breakerClosed {
		t.Fatal("re-closed breaker tripped on first failure")
	}
}

// TestBreakerHalfOpenFailureReopens: any probe failure slams the breaker
// shut again for a fresh OpenFor interval.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 4; i++ {
		b.record(false)
	}
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("half-open rejected probe")
	}
	b.record(false)
	if b.currentState() != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.currentState())
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted a request")
	}
	clk.advance(time.Second)
	if b.allow() {
		t.Fatal("re-opened breaker admitted before a full OpenFor")
	}
}

// TestBreakerWindowExpiry: failures older than Window stop counting, so a
// burst of old errors cannot trip a now-healthy replica.
func TestBreakerWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	b.record(false)
	b.record(false)
	b.record(false)
	clk.advance(11 * time.Second) // past the 10s window
	b.record(true)
	b.record(true)
	b.record(true)
	b.record(false)
	// Window now holds 3 ok + 1 fail = 25% < 50%: must stay closed.
	if b.currentState() != breakerClosed {
		t.Fatalf("expired failures still tripped the breaker: %v", b.currentState())
	}
}

// TestBreakerCancelProbe: an abandoned half-open probe releases its slot.
func TestBreakerCancelProbe(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	for i := 0; i < 4; i++ {
		b.record(false)
	}
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("half-open rejected probe")
	}
	b.cancelProbe()
	if !b.allow() {
		t.Fatal("canceled probe did not release its slot")
	}
}

// TestBreakerForceOpenAndReset: the prober's out-of-band controls.
func TestBreakerForceOpenAndReset(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk)
	var transitions []string
	b.onTransition = func(_, to breakerState) { transitions = append(transitions, to.String()) }

	b.forceOpen()
	if b.currentState() != breakerOpen || b.allow() {
		t.Fatal("forceOpen did not open the breaker")
	}
	b.reset()
	if b.currentState() != breakerClosed || !b.allow() {
		t.Fatal("reset did not close the breaker")
	}
	if len(transitions) != 2 || transitions[0] != "open" || transitions[1] != "closed" {
		t.Fatalf("transitions = %v, want [open closed]", transitions)
	}
}
