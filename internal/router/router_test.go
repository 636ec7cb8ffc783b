package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rerank"
	"repro/internal/serve"
)

// fakeReplica is a scriptable stand-in for a rapidserve process.
type fakeReplica struct {
	srv   *httptest.Server
	hits  atomic.Int64
	serve atomic.Value // func(w http.ResponseWriter, r *http.Request)
}

func okJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ranked":[1],"scores":[1],"latency_ms":0.1}`)
}

func newFakeReplica(t *testing.T, h http.HandlerFunc) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.serve.Store(h)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			json.NewEncoder(w).Encode(engine.ReadyStatus{Ready: true, ModelVersion: "v1"})
			return
		}
		f.hits.Add(1)
		f.serve.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) set(h http.HandlerFunc) { f.serve.Store(h) }

func testRouter(t *testing.T, cfg Config, handlers ...http.HandlerFunc) (*Router, []*fakeReplica) {
	t.Helper()
	var reps []*fakeReplica
	for i, h := range handlers {
		f := newFakeReplica(t, h)
		reps = append(reps, f)
		cfg.Replicas = append(cfg.Replicas, Replica{ID: fmt.Sprintf("r%d", i), URL: f.srv.URL})
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.jitter = func() float64 { return 0 } // deterministic minimal backoff
	return r, reps
}

// reqBody builds a decodable rerank request whose user key varies with n.
func reqBody(n int) []byte {
	return []byte(fmt.Sprintf(
		`{"user_features":[%d],"items":[{"id":1,"features":[],"cover":[],"init_score":1}],"topic_sequences":[]}`, n))
}

// bodyOwnedBy searches for a request body whose consistent-hash owner is the
// given replica index.
func bodyOwnedBy(t *testing.T, r *Router, want int) []byte {
	t.Helper()
	for n := 0; n < 10000; n++ {
		body := reqBody(n)
		key, err := userKeyFor(body, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.ring.owner(key) == want {
			return body
		}
	}
	t.Fatal("no body found owned by replica")
	return nil
}

func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(w, req)
	return w
}

// TestRouterStickyRouting: the same request body always lands on the same
// replica, and different bodies spread across the fleet.
func TestRouterStickyRouting(t *testing.T) {
	r, reps := testRouter(t, Config{}, okJSON, okJSON, okJSON)
	h := r.Handler()

	body := reqBody(7)
	var firstReplica string
	for i := 0; i < 5; i++ {
		w := post(h, "/v1/rerank", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		rep := w.Header().Get("X-Router-Replica")
		if firstReplica == "" {
			firstReplica = rep
		} else if rep != firstReplica {
			t.Fatalf("request moved from %s to %s", firstReplica, rep)
		}
	}
	// A spread of keys reaches more than one replica.
	for n := 0; n < 40; n++ {
		post(h, "/v1/rerank", reqBody(n))
	}
	busy := 0
	for _, f := range reps {
		if f.hits.Load() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("40 distinct keys reached only %d replicas", busy)
	}
}

// TestRouterUserStickyAcrossSlates: the ring places users, not slates. One
// user sent 20 fresh candidate lists through the three-replica fleet is
// served by one replica throughout.
func TestRouterUserStickyAcrossSlates(t *testing.T) {
	f := newFleet(t, Config{})
	var first string
	for n := 0; n < 20; n++ {
		w := f.send([]byte(fmt.Sprintf(`{"user_features":[7,0.5,-0.25],"items":[
			{"id":%d,"features":[0.1,0.2],"cover":[0.3,0.1],"init_score":0.9},
			{"id":%d,"features":[0.4,%d],"cover":[0.1,0.5],"init_score":0.7}],
			"topic_sequences":[[],[]]}`, 2*n+1, 2*n+2, n)))
		if w.Code != http.StatusOK {
			t.Fatalf("slate %d: status %d: %s", n, w.Code, w.Body.String())
		}
		rep := w.Header().Get("X-Router-Replica")
		if n == 0 {
			first = rep
		} else if rep != first {
			t.Fatalf("slate %d went to %s, slate 0 to %s", n, rep, first)
		}
	}
}

// TestRouterRetriesFailedOwner: a 500 from the owner fails over to the next
// replica in the key's sequence and the client sees a clean 200.
func TestRouterRetriesFailedOwner(t *testing.T) {
	r, reps := testRouter(t, Config{
		Retry: RetryConfig{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	}, okJSON, okJSON)
	body := bodyOwnedBy(t, r, 0)
	reps[0].set(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})

	w := post(r.Handler(), "/v1/rerank", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after failover: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Router-Replica"); got != "r1" {
		t.Fatalf("served by %s, want fallback r1", got)
	}
	if n := r.met.retries.Value(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if n := r.met.attempts.With(attempt5xx).Value(); n != 1 {
		t.Fatalf("5xx attempts = %d, want 1", n)
	}
}

// TestRouterBackpressureRetry: a 429 shed is retried with backoff (honoring
// Retry-After via the capped sleep) and succeeds on the fallback replica.
func TestRouterBackpressureRetry(t *testing.T) {
	r, reps := testRouter(t, Config{
		Retry: RetryConfig{BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	}, okJSON, okJSON)
	body := bodyOwnedBy(t, r, 0)
	reps[0].set(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1") // capped to MaxBackoff by the router
		w.Header().Set(serve.ShedReasonHeader, engine.ShedBackpressure)
		http.Error(w, "shed", http.StatusTooManyRequests)
	})

	w := post(r.Handler(), "/v1/rerank", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", w.Code, w.Body.String())
	}
	if n := r.met.attempts.With(attemptShedBack).Value(); n != 1 {
		t.Fatalf("shed_backpressure attempts = %d, want 1", n)
	}
}

// TestRouterDrainingFailover: a draining shed fails over immediately — no
// budget charge, no retry counted — and the replica is skipped afterwards.
func TestRouterDrainingFailover(t *testing.T) {
	r, reps := testRouter(t, Config{}, okJSON, okJSON)
	body := bodyOwnedBy(t, r, 0)
	reps[0].set(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(serve.ShedReasonHeader, engine.ShedDraining)
		w.Header().Set("Retry-After", "5")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	})

	h := r.Handler()
	w := post(h, "/v1/rerank", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", w.Code, w.Body.String())
	}
	if n := r.met.retries.Value(); n != 0 {
		t.Fatalf("draining failover consumed %d retries, want 0", n)
	}
	if bal := r.budget.balance(); bal != r.cfg.Retry.BudgetCap {
		t.Fatalf("draining failover charged the budget: %v", bal)
	}
	// The drained replica is now skipped without being asked.
	before := reps[0].hits.Load()
	if w := post(h, "/v1/rerank", body); w.Code != http.StatusOK {
		t.Fatalf("second request status %d", w.Code)
	}
	if reps[0].hits.Load() != before {
		t.Fatal("drained replica was picked again")
	}
}

// TestRouterRetryBudgetExhaustion: with the budget drained and every replica
// failing, the router stops retrying and relays the failure.
func TestRouterRetryBudgetExhaustion(t *testing.T) {
	fail := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}
	r, _ := testRouter(t, Config{
		Retry: RetryConfig{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			BudgetRatio: 0.001,
			BudgetCap:   1,
		},
	}, fail, fail, fail)

	h := r.Handler()
	// First request: primary fails, one budgeted retry fails, then the
	// bucket (cap 1) is empty.
	if w := post(h, "/v1/rerank", reqBody(1)); w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want relayed 500", w.Code)
	}
	if n := r.met.retries.Value(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if n := r.met.budgetExhausted.Value(); n != 1 {
		t.Fatalf("budget exhausted = %d, want 1", n)
	}
	// Second request: no tokens left at all — zero retries.
	post(h, "/v1/rerank", reqBody(2))
	if n := r.met.retries.Value(); n != 1 {
		t.Fatalf("retries after empty budget = %d, want still 1", n)
	}
}

// TestRouterHedging: a slow owner is hedged after HedgeDelay and the fast
// fallback's response wins; the slow attempt is canceled, not failed.
func TestRouterHedging(t *testing.T) {
	r, reps := testRouter(t, Config{HedgeDelay: 10 * time.Millisecond}, okJSON, okJSON)
	body := bodyOwnedBy(t, r, 0)
	release := make(chan struct{})
	reps[0].set(func(w http.ResponseWriter, req *http.Request) {
		select {
		case <-release:
		case <-req.Context().Done():
			return
		}
		okJSON(w, req)
	})
	defer close(release)

	start := time.Now()
	w := post(r.Handler(), "/v1/rerank", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Router-Replica"); got != "r1" {
		t.Fatalf("served by %s, want hedge winner r1", got)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("hedged request took %v", d)
	}
	if n := r.met.hedges.Value(); n != 1 {
		t.Fatalf("hedges = %d, want 1", n)
	}
	if n := r.met.hedgeWins.Value(); n != 1 {
		t.Fatalf("hedge wins = %d, want 1", n)
	}
}

// TestRouterBadInput: undecodable JSON is rejected at the router without
// burning replica work or retry budget.
func TestRouterBadInput(t *testing.T) {
	r, reps := testRouter(t, Config{}, okJSON)
	w := post(r.Handler(), "/v1/rerank", []byte("{not json"))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if reps[0].hits.Load() != 0 {
		t.Fatal("malformed request reached a replica")
	}
	if w := post(r.Handler(), "/v1/rerank:batch", []byte(`{"requests":[{}]}`)); w.Code != http.StatusOK {
		t.Fatalf("batch status %d, want 200", w.Code)
	}
	// Bodies the skim declines take the encoding/json path, where the rule
	// is the same: undecodable never reaches a replica, decodable does.
	hits := reps[0].hits.Load()
	if w := post(r.Handler(), "/v1/rerank", []byte(`{"user_features":"nope"}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("wrong-typed field: status %d, want 400", w.Code)
	}
	if w := post(r.Handler(), "/v1/rerank:batch", []byte(`{"requests":[{"items":7}]}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("wrong-typed batch field: status %d, want 400", w.Code)
	}
	if reps[0].hits.Load() != hits {
		t.Fatal("wrong-typed request reached a replica")
	}
	if w := post(r.Handler(), "/v1/rerank", []byte(`{"User_Features":[1],"items":[{"ID":1}]}`)); w.Code != http.StatusOK {
		t.Fatalf("case-variant keys: status %d, want 200", w.Code)
	}
	if reps[0].hits.Load() != hits+1 {
		t.Fatal("case-variant request did not reach the replica")
	}
	// The unversioned route is gone from the router as it is from serve.
	if w := post(r.Handler(), "/rerank", reqBody(1)); w.Code != http.StatusNotFound {
		t.Fatalf("POST /rerank: status %d, want 404", w.Code)
	}
	if reps[0].hits.Load() != hits+1 {
		t.Fatal("a request on the unversioned route reached a replica")
	}
}

// TestRouterDeclinedBodiesMatchEncodingJSON feeds one body per reason the
// skim declines through the router: status and error text must be what
// encoding/json alone decides, as they were before the skim existed, and the
// key of an accepted body must be the key of what encoding/json decodes.
func TestRouterDeclinedBodiesMatchEncodingJSON(t *testing.T) {
	r, reps := testRouter(t, Config{}, okJSON)
	deep := `{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`
	for _, body := range []string{
		`{"items":[{"ID":1}]}`, `{"items":[{"id":1,"id":2}]}`, `{"items":[{"features":null}]}`,
		`{"id"`, `{"user_features":[01]}`, `{"user_features":[-]}`, `{"user_features":[1e999]}`,
		`{"items":[{"init_score":1e999}]}`, `{"items":[{"id":1.0}]}`, `{} x`, deep,
		" {\"user_features\" : [ -0 , 1e-7 ] }\n", `{"items":[{"id":2}],"user_features":[3]}`,
		`{"items":[{"\u0069d":1}]}`, `{"tenant":"caf\u00e9"}`, `null`, ``,
	} {
		hits := reps[0].hits.Load()
		w := post(r.Handler(), "/v1/rerank", []byte(body))
		var ref engine.Request
		if err := json.Unmarshal([]byte(body), &ref); err != nil {
			if want := "malformed request: " + err.Error() + "\n"; w.Code != http.StatusBadRequest || w.Body.String() != want {
				t.Errorf("%q: status %d body %q, want 400 %q", body, w.Code, w.Body.String(), want)
			}
			if reps[0].hits.Load() != hits {
				t.Errorf("%q reached a replica", body)
			}
			continue
		}
		if w.Code != http.StatusOK || reps[0].hits.Load() != hits+1 {
			t.Errorf("%q: status %d, want 200 from the replica", body, w.Code)
		}
		if key, err := userKeyFor([]byte(body), false); err != nil || key != engine.UserKey(&ref) {
			t.Errorf("%q: key %#x err %v, want %#x", body, key, err, engine.UserKey(&ref))
		}
	}
}

// TestRouterNoHealthyReplica: with every replica's breaker forced open the
// router answers 503 with Retry-After rather than hanging.
func TestRouterNoHealthyReplica(t *testing.T) {
	r, _ := testRouter(t, Config{}, okJSON, okJSON)
	for _, rs := range r.replicas {
		rs.br.forceOpen()
	}
	w := post(r.Handler(), "/v1/rerank", reqBody(1))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if n := r.met.responses.With("unavailable").Value(); n != 1 {
		t.Fatalf("unavailable responses = %d, want 1", n)
	}
}

// TestProbeEjectionAndReadmission drives probeOnce directly: consecutive
// probe failures eject the replica and open its breaker; a later successful
// probe re-admits it with a clean breaker.
func TestProbeEjectionAndReadmission(t *testing.T) {
	r, reps := testRouter(t, Config{
		Health: HealthConfig{Interval: 10 * time.Millisecond, Timeout: 100 * time.Millisecond, Ejections: 2},
	}, okJSON)
	rs := r.replicas[0]

	reps[0].srv.Close() // replica dies
	d1 := r.probeOnce(rs)
	if !rs.eligible() {
		t.Fatal("ejected after a single probe failure")
	}
	d2 := r.probeOnce(rs)
	if rs.eligible() {
		t.Fatal("still eligible after Ejections consecutive failures")
	}
	if rs.br.currentState() != breakerOpen {
		t.Fatalf("breaker %v after ejection, want open", rs.br.currentState())
	}
	d3 := r.probeOnce(rs)
	if !(d1 <= d2 && d2 <= d3) {
		t.Fatalf("probe delays not backing off: %v %v %v", d1, d2, d3)
	}

	// Replica restarts on a fresh listener; point the state at it.
	f2 := newFakeReplica(t, okJSON)
	rs.mu.Lock()
	rs.base = f2.srv.URL
	rs.mu.Unlock()
	if d := r.probeOnce(rs); d != r.cfg.Health.Interval {
		t.Fatalf("post-recovery probe delay %v, want steady interval", d)
	}
	if !rs.eligible() {
		t.Fatal("successful probe did not re-admit the replica")
	}
	if rs.br.currentState() != breakerClosed {
		t.Fatalf("breaker %v after re-admission, want closed", rs.br.currentState())
	}
}

// TestProbeDraining: a draining /readyz ejects without opening the breaker.
func TestProbeDraining(t *testing.T) {
	f := &fakeReplica{}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(engine.ReadyStatus{Ready: false, Draining: true, ModelVersion: "v1"})
	}))
	t.Cleanup(f.srv.Close)
	r, err := New(Config{Replicas: []Replica{{ID: "r0", URL: f.srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	rs := r.replicas[0]
	r.probeOnce(rs)
	if rs.eligible() {
		t.Fatal("draining replica still eligible")
	}
	if rs.br.currentState() != breakerClosed {
		t.Fatalf("draining opened the breaker: %v", rs.br.currentState())
	}
}

// TestFleetStatusAndSkew: /admin/fleet reports per-replica state and flags
// a mixed-version window.
func TestFleetStatusAndSkew(t *testing.T) {
	versioned := func(v string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				json.NewEncoder(w).Encode(engine.ReadyStatus{Ready: true, ModelVersion: v})
				return
			}
			okJSON(w, r)
		}
	}
	fa := httptest.NewServer(versioned("v1"))
	fb := httptest.NewServer(versioned("v2"))
	t.Cleanup(fa.Close)
	t.Cleanup(fb.Close)
	r, err := New(Config{Replicas: []Replica{{ID: "a", URL: fa.URL}, {ID: "b", URL: fb.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.probeOnce(r.replicas[0])
	r.probeOnce(r.replicas[1])

	st := r.fleetStatus()
	if !st.VersionSkew || len(st.Versions) != 2 {
		t.Fatalf("skew not detected: %+v", st)
	}
	if got := r.met.skew.Value(); got != 1 {
		t.Fatalf("skew gauge = %v, want 1", got)
	}

	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/admin/fleet", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/admin/fleet status %d", w.Code)
	}
	var decoded fleetStatus
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/admin/fleet not JSON: %v", err)
	}
	if len(decoded.Replicas) != 2 || !decoded.VersionSkew {
		t.Fatalf("fleet document %+v", decoded)
	}
}

// TestFleetGaugesConcurrentFirstProbes: the first probes of two replicas on
// different versions run concurrently, as Start launches them. Each refresh
// computes the fleet gauges from a snapshot; unserialized, the probe that
// snapshotted first could write last and leave versions at 1 with two
// versions live. Run with -race -count=10.
func TestFleetGaugesConcurrentFirstProbes(t *testing.T) {
	versioned := func(v string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			json.NewEncoder(w).Encode(engine.ReadyStatus{Ready: true, ModelVersion: v})
		}
	}
	fa := httptest.NewServer(versioned("v1"))
	fb := httptest.NewServer(versioned("v2"))
	t.Cleanup(fa.Close)
	t.Cleanup(fb.Close)
	for round := 0; round < 20; round++ {
		r, err := New(Config{Replicas: []Replica{{ID: "a", URL: fa.URL}, {ID: "b", URL: fb.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, rs := range r.replicas {
			wg.Add(1)
			go func(rs *replicaState) {
				defer wg.Done()
				r.probeOnce(rs)
			}(rs)
		}
		wg.Wait()
		if v, skew := r.met.versions.Value(), r.met.skew.Value(); v != 2 || skew != 1 {
			t.Fatalf("round %d: versions gauge %v skew %v, want 2 and 1", round, v, skew)
		}
		r.Close()
	}
}

// TestRouterOversizedBodyAnswersLikeReplica: a body over the 8 MiB cap gets
// from the router the answer a replica gives the same body — 413 with the v1
// envelope, byte for byte — without reaching any replica, and counts as
// bad_input.
func TestRouterOversizedBodyAnswersLikeReplica(t *testing.T) {
	replica := serve.NewServer(engine.Adapt(rerank.Identity{}), engine.Manifest{Dataset: "test", Config: core.DefaultConfig(3, 2, 2, 1)}, serve.Config{})
	r, reps := testRouter(t, Config{}, okJSON)
	body := []byte(`{"user_features":[` + strings.Repeat("1,", maxBodyBytes/2) + `1]}`)
	want := post(replica.Handler(), "/v1/rerank", body)
	got := post(r.Handler(), "/v1/rerank", body)
	if want.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("replica answered %d, want 413", want.Code)
	}
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || got.Body.String() != want.Body.String() {
		t.Fatalf("router answered %d %q %q, replica %d %q %q", got.Code, got.Header().Get("Content-Type"), got.Body.String(),
			want.Code, want.Header().Get("Content-Type"), want.Body.String())
	}
	if n := reps[0].hits.Load(); n != 0 {
		t.Fatalf("oversized body reached a replica %d times", n)
	}
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(w.Body.String(), `rapid_router_responses_total{status="bad_input"} 1`) {
		t.Fatalf("no bad_input response counted:\n%s", w.Body.String())
	}
}
