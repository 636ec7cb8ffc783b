package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rerank"
	"repro/internal/serve"
)

// echoScorer returns the initial scores — a fast, deterministic model for
// fleet tests that exercise the routing layer, not ranking quality.
type echoScorer struct{}

func (echoScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return inst.InitScores, nil
}
func (echoScorer) Name() string { return "echo" }

// fleetGeometry is the tiny model geometry every fleet-test request matches.
var fleetGeometry = core.Config{UserDim: 3, ItemDim: 2, Topics: 2}

// fleetBody builds a geometry-valid request whose user key varies with n.
func fleetBody(n int) []byte {
	return []byte(fmt.Sprintf(`{
		"user_features": [%d, 0.5, -0.25],
		"items": [
			{"id": 1, "features": [0.1, 0.2], "cover": [0.3, 0.1], "init_score": 0.9},
			{"id": 2, "features": [0.4, 0.1], "cover": [0.1, 0.5], "init_score": 0.7}
		],
		"topic_sequences": [[], []]
	}`, n))
}

// fleet is three real in-process serve.Servers, each behind a chaos proxy,
// behind one router.
type fleet struct {
	router  *Router
	proxies []*chaos.Proxy
	handler http.Handler
}

func newFleet(t *testing.T, cfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < 3; i++ {
		srv := serve.NewServer(echoScorer{},
			engine.Manifest{Dataset: "fleet-test", Config: fleetGeometry},
			serve.Config{Budget: time.Second, QueueWait: 200 * time.Millisecond})
		srv.Log = func(string, ...any) {}
		backend := httptest.NewServer(srv.Handler())
		t.Cleanup(backend.Close)
		p, err := chaos.NewProxy(backend.URL)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(p)
		t.Cleanup(front.Close)
		f.proxies = append(f.proxies, p)
		cfg.Replicas = append(cfg.Replicas, Replica{ID: fmt.Sprintf("r%d", i), URL: front.URL})
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	f.router = r
	f.handler = r.Handler()
	return f
}

// send posts one request and returns the recorder.
func (f *fleet) send(body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/rerank", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	f.handler.ServeHTTP(w, req)
	return w
}

// bodiesOwnedBy returns distinct request bodies whose hash owner is the
// given replica.
func (f *fleet) bodiesOwnedBy(t *testing.T, replica, count int) [][]byte {
	t.Helper()
	var out [][]byte
	for n := 0; len(out) < count && n < 100000; n++ {
		body := fleetBody(n)
		key, err := userKeyFor(body, false)
		if err != nil {
			t.Fatal(err)
		}
		if f.router.ring.owner(key) == replica {
			out = append(out, body)
		}
	}
	if len(out) < count {
		t.Fatalf("found only %d/%d bodies owned by replica %d", len(out), count, replica)
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (f *fleet) replicaStatus(id string) replicaStatus {
	for _, rs := range f.router.fleetStatus().Replicas {
		if rs.ID == id {
			return rs
		}
	}
	return replicaStatus{}
}

// TestChaosFleet is the acceptance scenario from the fleet-routing work:
// three live replicas behind the router, then — under continuous load — one
// replica is killed and restarted, one is slowed 10x, and one burns an error
// burst through its circuit breaker. Every request sent while at least one
// healthy replica existed must succeed; the breaker must walk
// open → half-open → closed exactly as scripted. CI runs this under -race.
func TestChaosFleet(t *testing.T) {
	f := newFleet(t, Config{
		HedgeDelay:     25 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		Health: HealthConfig{
			Interval:   20 * time.Millisecond,
			Timeout:    300 * time.Millisecond,
			MaxBackoff: 100 * time.Millisecond,
			Ejections:  2,
		},
		Breaker: BreakerConfig{
			Window:            2 * time.Second,
			MinSamples:        4,
			FailureRate:       0.5,
			OpenFor:           150 * time.Millisecond,
			HalfOpenProbes:    1,
			HalfOpenSuccesses: 2,
		},
		Retry: RetryConfig{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		},
	})
	f.router.Start()
	waitFor(t, "initial probes", func() bool {
		for _, rs := range f.router.fleetStatus().Replicas {
			if !rs.Healthy {
				return false
			}
		}
		return true
	})

	mustOK := func(phase string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		w := f.send(body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: dropped request with a healthy replica available: status %d %s (fleet %+v)",
				phase, w.Code, w.Body.String(), f.router.fleetStatus())
		}
		return w
	}

	// Phase 1 — steady state: every request lands, ownership is sticky.
	for n := 0; n < 30; n++ {
		mustOK("steady", fleetBody(n))
	}

	// Phase 2 — kill replica 0 mid-load. Requests keep succeeding through
	// transport-error retries while the prober ejects it.
	victim := f.bodiesOwnedBy(t, 0, 10)
	f.proxies[0].SetDown(true)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := f.send(victim[i])
			if w.Code != http.StatusOK {
				t.Errorf("kill phase: dropped request: status %d %s", w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, "replica 0 ejection", func() bool { return !f.replicaStatus("r0").Healthy })
	for i := 0; i < 5; i++ {
		w := mustOK("while-dead", victim[i])
		if got := w.Header().Get("X-Router-Replica"); got == "r0" {
			t.Fatalf("ejected replica served a request")
		}
	}

	// Phase 3 — restart it. The prober re-admits with a clean breaker and
	// the keyspace snaps back to the owner.
	f.proxies[0].SetDown(false)
	waitFor(t, "replica 0 re-admission", func() bool {
		rs := f.replicaStatus("r0")
		return rs.Healthy && rs.Breaker == "closed"
	})
	waitFor(t, "traffic back on replica 0", func() bool {
		return mustOK("post-restart", victim[0]).Header().Get("X-Router-Replica") == "r0"
	})

	// Phase 4 — slow node: replica 1 answers 10x slow; hedging keeps its
	// keyspace fast via the fallback replica, and the abandoned primary is
	// accounted as canceled, not failed.
	slow := f.bodiesOwnedBy(t, 1, 8)
	f.proxies[1].SetInjector(&chaos.Script{
		Faults: repeatFault(chaos.Fault{Delay: 400 * time.Millisecond}, 64),
		Match:  chaos.ScoringOnly,
	})
	hedgesBefore := f.router.met.hedges.Value()
	for _, body := range slow {
		w := mustOK("slow-node", body)
		if got := w.Header().Get("X-Router-Replica"); got == "r1" {
			t.Fatalf("slow replica won a hedged request in %s", w.Result().Header)
		}
	}
	if f.router.met.hedges.Value() <= hedgesBefore {
		t.Fatal("slow-node phase launched no hedges")
	}
	waitFor(t, "canceled-loser accounting", func() bool {
		return f.router.met.attempts.With(attemptCanceled).Value() > 0
	})
	if n := f.router.met.attempts.With(attempt5xx).Value(); n != 0 {
		t.Fatalf("slow node was accounted as %d server errors", n)
	}
	f.proxies[1].SetInjector(nil)

	// Phase 5 — error burst on replica 2: the breaker opens after the
	// windowed error rate trips, half-opens after OpenFor, and closes after
	// the scripted probe successes. Clients never see the burst.
	bad := f.bodiesOwnedBy(t, 2, 12)
	f.proxies[2].SetInjector(&chaos.Script{
		Faults: repeatFault(chaos.Fault{Status: 500}, 256),
		Match:  chaos.ScoringOnly,
	})
	// Keep the burst flowing until the windowed failure rate overwhelms the
	// successes recorded during the earlier phases and trips the breaker.
	waitFor(t, "breaker open on r2", func() bool {
		mustOK("error-burst", bad[0])
		st := f.replicaStatus("r2").Breaker
		return st == "open" || st == "half-open"
	})
	f.proxies[2].SetInjector(nil)
	time.Sleep(160 * time.Millisecond) // OpenFor elapses → half-open
	waitFor(t, "breaker re-close on r2", func() bool {
		mustOK("probe-traffic", bad[6])
		return f.replicaStatus("r2").Breaker == "closed"
	})
	if w := mustOK("recovered", bad[7]); w.Header().Get("X-Router-Replica") != "r2" {
		t.Fatalf("recovered replica not serving its keyspace: %s", w.Header().Get("X-Router-Replica"))
	}

	// The whole scenario relayed zero 5xx and synthesized zero 503s.
	if n := f.router.met.responses.With("unavailable").Value(); n != 0 {
		t.Fatalf("router synthesized %d unavailable responses", n)
	}
	if n := f.router.met.responses.With("error").Value(); n != 0 {
		t.Fatalf("router relayed %d upstream errors", n)
	}
	if f.router.met.breakerTransitions.With("open").Value() == 0 ||
		f.router.met.breakerTransitions.With("half-open").Value() == 0 ||
		f.router.met.breakerTransitions.With("closed").Value() == 0 {
		t.Fatalf("breaker did not walk the scripted open/half-open/closed circle")
	}
}

// TestChaosAttemptTimeout: a replica slower than the per-attempt timeout is
// accounted as timeouts (opening its breaker), and with no healthy fallback
// the client gets a clean 503 with Retry-After rather than a hang.
func TestChaosAttemptTimeout(t *testing.T) {
	f := newFleet(t, Config{
		AttemptTimeout: 50 * time.Millisecond,
		Breaker:        BreakerConfig{MinSamples: 2, FailureRate: 0.5, OpenFor: time.Minute},
		Retry:          RetryConfig{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	// Every replica is slow: no healthy fallback exists, so a 503 here is
	// correct, not a drop.
	for _, p := range f.proxies {
		p.SetInjector(chaos.InjectorFunc(func(r *http.Request) chaos.Fault {
			if r.Method != http.MethodPost {
				return chaos.Fault{}
			}
			return chaos.Fault{Delay: 300 * time.Millisecond}
		}))
	}
	// Two passes: the first gives every replica one timeout sample, the
	// second pushes each past MinSamples and trips its breaker.
	var w *httptest.ResponseRecorder
	for i := 0; i < 2; i++ {
		w = f.send(fleetBody(1))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 when every attempt times out", w.Code)
		}
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if n := f.router.met.attempts.With(attemptTimeout).Value(); n == 0 {
		t.Fatal("no timeout attempts accounted")
	}
	if n := f.router.met.attempts.With(attempt5xx).Value(); n != 0 {
		t.Fatalf("timeouts misaccounted as %d server errors", n)
	}
	// The timeouts opened at least one breaker.
	opened := false
	for _, rs := range f.router.fleetStatus().Replicas {
		if rs.Breaker != "closed" {
			opened = true
		}
	}
	if !opened {
		t.Fatal("repeated timeouts left every breaker closed")
	}
}

// TestChaosDrainingReplica: a replica that begins draining (in-band 503 +
// X-Shed-Reason) loses its keyspace without a single failed client request
// and without opening its breaker.
func TestChaosDrainingReplica(t *testing.T) {
	f := newFleet(t, Config{
		Health: HealthConfig{Interval: time.Hour}, // probers idle: in-band detection only
	})
	body := f.bodiesOwnedBy(t, 0, 1)[0]
	f.proxies[0].SetInjector(chaos.InjectorFunc(func(r *http.Request) chaos.Fault {
		if r.Method != http.MethodPost {
			return chaos.Fault{}
		}
		return chaos.Fault{Status: 503, RetryAfter: 5, ShedReason: engine.ShedDraining}
	}))
	w := f.send(body)
	if w.Code != http.StatusOK {
		t.Fatalf("draining failover status %d: %s", w.Code, w.Body.String())
	}
	if got := f.replicaStatus("r0"); !got.Draining || got.Breaker != "closed" {
		t.Fatalf("draining replica state %+v, want draining with closed breaker", got)
	}
	if n := f.router.met.attempts.With(attemptShedDraining).Value(); n != 1 {
		t.Fatalf("shed_draining attempts = %d, want 1", n)
	}
}

func repeatFault(fl chaos.Fault, n int) []chaos.Fault {
	out := make([]chaos.Fault, n)
	for i := range out {
		out[i] = fl
	}
	return out
}

// TestChaosFleetMetricsExposed: the router's /metrics surface carries the
// fleet series a dashboard needs — spot-check names and label shapes.
func TestChaosFleetMetricsExposed(t *testing.T) {
	f := newFleet(t, Config{})
	f.send(fleetBody(1))
	w := httptest.NewRecorder()
	f.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	text := w.Body.String()
	for _, want := range []string{
		"rapid_router_requests_total 1",
		`rapid_router_responses_total{status="ok"} 1`,
		`rapid_router_replica_healthy{replica="r0"}`,
		`rapid_router_breaker_state{replica="r2"}`,
		`rapid_router_breaker_transitions_total{state="open"} 0`,
		"rapid_router_version_skew 0",
		"rapid_router_request_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	var fs fleetStatus
	w = httptest.NewRecorder()
	f.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/admin/fleet", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &fs); err != nil {
		t.Fatalf("/admin/fleet: %v", err)
	}
	if len(fs.Replicas) != 3 {
		t.Fatalf("fleet document has %d replicas", len(fs.Replicas))
	}
}
