package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	// The one edge into the HTTP frontend inside internal/ that `make layers`
	// allows, for serve.ReadBody and serve.ShedReasonHeader; ROADMAP item 2
	// removes it.
	"repro/internal/serve"
)

// Replica names one rapidserve backend.
type Replica struct {
	// ID is the stable identity hashed onto the ring. It must survive
	// restarts and address changes — keyspace ownership follows the ID, not
	// the URL.
	ID string `json:"id"`
	// URL is the replica's base URL, e.g. "http://10.0.0.3:8080".
	URL string `json:"url"`
}

// RetryConfig bounds the retry path. The zero value is usable: every field
// falls back to the listed default.
type RetryConfig struct {
	// MaxAttempts is the total tries per request including the primary
	// (default 3). Draining failovers — the replica said "go elsewhere", not
	// "I failed" — do not count against it.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff between retries (default
	// 25ms); MaxBackoff caps it (default 1s). The sleep is jittered to half
	// its nominal value and stretched to honor an upstream Retry-After.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BudgetRatio is the retry-budget earn rate: each primary request
	// deposits this many tokens and each retry or hedge withdraws one
	// (default 0.1 — retries may add at most ~10% load). BudgetCap bounds
	// the burst (default 100 tokens).
	BudgetRatio float64
	BudgetCap   float64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.BudgetRatio <= 0 {
		c.BudgetRatio = 0.1
	}
	if c.BudgetCap <= 0 {
		c.BudgetCap = 100
	}
	return c
}

// ringVNodes is the virtual-node count per replica on the hash ring.
const ringVNodes = 64

// Config assembles a Router.
type Config struct {
	// Replicas is the fleet; at least one is required.
	Replicas []Replica
	// HedgeDelay, when positive, arms request hedging: if the owning replica
	// has not answered within this delay, a second attempt starts on the
	// next replica in the key's fallback sequence and the first response
	// wins. Hedges withdraw from the same retry budget, so a slow fleet
	// cannot be buried under its own hedges. Zero disables hedging.
	HedgeDelay time.Duration
	// AttemptTimeout bounds one proxied attempt (default 5s).
	AttemptTimeout time.Duration

	Health  HealthConfig
	Breaker BreakerConfig
	Retry   RetryConfig

	// Log receives operational one-liners; nil means silent.
	Log func(format string, args ...any)
}

// Router shards /v1/rerank traffic across replicas by consistent hash and
// keeps serving through replica failures. See the package comment for the
// design.
type Router struct {
	cfg         Config
	ring        *ring
	replicas    []*replicaState
	client      *http.Client
	probeClient *http.Client
	reg         *obs.Registry
	met         *routerMetrics
	budget      *retryBudget
	now         func() time.Time
	jitter      func() float64 // uniform [0,1) for backoff spread

	// gaugeMu serializes refreshFleetGauges: probers and the forward path
	// call it concurrently, and a snapshot taken before another caller's
	// update must not be the one written last.
	gaugeMu sync.Mutex

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New validates cfg and assembles a Router. Call Start to launch the health
// probers and Close to stop them.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas")
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 5 * time.Second
	}
	cfg.Health = cfg.Health.withDefaults()
	cfg.Breaker = cfg.Breaker.withDefaults()
	cfg.Retry = cfg.Retry.withDefaults()

	ids := make([]string, len(cfg.Replicas))
	for i, rep := range cfg.Replicas {
		ids[i] = rep.ID
		u, err := url.Parse(rep.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: replica %q has invalid URL %q", rep.ID, rep.URL)
		}
	}
	rg, err := newRing(ids, ringVNodes)
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	r := &Router{
		cfg:         cfg,
		ring:        rg,
		client:      &http.Client{},
		probeClient: &http.Client{Timeout: cfg.Health.Timeout},
		reg:         reg,
		met:         newRouterMetrics(reg),
		budget: &retryBudget{
			ratio: cfg.Retry.BudgetRatio,
			cap:   cfg.Retry.BudgetCap,
			// Start full so a cold router can retry from its first request.
			tokens: cfg.Retry.BudgetCap,
		},
		now:    time.Now,
		jitter: rand.Float64,
		stop:   make(chan struct{}),
	}
	for _, rep := range cfg.Replicas {
		rs := &replicaState{
			id:      rep.ID,
			base:    strings.TrimRight(rep.URL, "/"),
			healthy: true, // optimistic until the first probe says otherwise
		}
		rs.br = newBreaker(cfg.Breaker, func() time.Time { return r.now() })
		id := rep.ID
		rs.br.onTransition = func(_, to breakerState) {
			r.met.breakerState.With(id).Set(float64(to))
			r.met.breakerTransitions.With(to.String()).Inc()
		}
		r.replicas = append(r.replicas, rs)
		// Eager series: every replica visible on /metrics from the start.
		r.met.healthy.With(id).Set(1)
		r.met.breakerState.With(id).Set(float64(breakerClosed))
	}
	for _, to := range []breakerState{breakerClosed, breakerOpen, breakerHalfOpen} {
		r.met.breakerTransitions.With(to.String())
	}
	return r, nil
}

// Start launches one health-prober goroutine per replica. Safe to skip in
// tests that drive the forward path directly.
func (r *Router) Start() {
	r.startOnce.Do(func() {
		for _, rs := range r.replicas {
			r.wg.Add(1)
			go r.probeLoop(rs)
		}
	})
}

// Close stops the probers and waits for them.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		r.cfg.Log(format, args...)
	}
}

// Handler returns the router's HTTP surface: the three proxied scoring
// endpoints plus the router's own health, metrics and fleet-introspection
// endpoints.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rerank", func(w http.ResponseWriter, req *http.Request) { r.handleProxy(w, req, false) })
	mux.HandleFunc("POST /v1/rerank:batch", func(w http.ResponseWriter, req *http.Request) { r.handleProxy(w, req, true) })
	mux.Handle("GET /metrics", r.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		for _, rs := range r.replicas {
			if rs.eligible() {
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, "ok\n")
				return
			}
		}
		http.Error(w, "no healthy replica", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("GET /admin/fleet", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.fleetStatus())
	})
	return mux
}

// maxBodyBytes mirrors the serving layer's request cap.
const maxBodyBytes = 8 << 20

// handleProxy is the data path: derive the user key, run the forward
// loop, relay the winning response.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request, batch bool) {
	r.met.requests.Inc()
	start := r.now()
	defer func() { r.met.latency.ObserveDuration(r.now().Sub(start)) }()

	body, err := serve.ReadBody(http.MaxBytesReader(w, req.Body, maxBodyBytes), req.ContentLength, nil)
	if err != nil {
		r.met.responses.With("bad_input").Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			// A replica's answer to the same body, byte for byte: the v1
			// envelope every non-2xx on /v1/rerank carries.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			fmt.Fprintf(w, "{\"error\":{\"code\":\"too_large\",\"message\":\"request body exceeds %d bytes\"}}\n", tooBig.Limit)
			return
		}
		http.Error(w, "body too large or unreadable", http.StatusBadRequest)
		return
	}
	key, err := userKeyFor(body, batch)
	if err != nil {
		// Reject malformed JSON here: no replica could serve it, so spending
		// retries on it would only burn budget.
		r.met.responses.With("bad_input").Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	res := r.forward(req.Context(), key, req.URL.Path, body, req.Header.Get("Content-Type"))
	if res != nil && res.class == attemptCanceled {
		// The client hung up; there is no one to answer.
		r.met.responses.With("canceled").Inc()
		return
	}
	if res == nil || res.err != nil {
		// Nothing relayable: no admitted replica, or every attempt died
		// without a complete HTTP exchange (timeout / connection reset).
		r.met.responses.With("unavailable").Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no healthy replica", http.StatusServiceUnavailable)
		return
	}
	r.met.responses.With(responseClass(res.status)).Inc()
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	for _, h := range []string{"Retry-After", serve.ShedReasonHeader} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Router-Replica", res.replica.id)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func responseClass(status int) string {
	switch {
	case status < 300:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status < 500:
		return "bad_input"
	case status == http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "error"
	}
}

// userKeyFor derives the consistent-hash key from the request body: the
// same engine.UserKey the serving layer uses for canary splits, so every
// request of one user — whatever slate it carries — lands on the same
// replica across retries and restarts. A batch hashes its members' keys
// together, so a stable batch is also stable. The engine's skim reads the key
// off the bytes without building the request; whatever it declines is
// decoded with encoding/json as before, so the bodies rejected here — and the
// messages — are encoding/json's.
func userKeyFor(body []byte, batch bool) (uint64, error) {
	if key, ok := engine.UserKeyJSON(body, batch); ok {
		return key, nil
	}
	if batch {
		var breq engine.BatchRequest
		if err := json.Unmarshal(body, &breq); err != nil {
			return 0, fmt.Errorf("malformed batch request: %v", err)
		}
		return engine.BatchUserKey(breq.Requests), nil
	}
	var rreq engine.Request
	if err := json.Unmarshal(body, &rreq); err != nil {
		return 0, fmt.Errorf("malformed request: %v", err)
	}
	return engine.UserKey(&rreq), nil
}

// Attempt classifications, used both as metric label values and as the
// forward loop's dispatch.
const (
	attemptOK           = "ok"
	attemptTransport    = "transport_error"
	attemptTimeout      = "timeout"
	attemptCanceled     = "canceled"
	attempt5xx          = "http_5xx"
	attemptShedBack     = "shed_backpressure"
	attemptShedDraining = "shed_draining"
)

// attemptResult is one proxied attempt's outcome, body fully read.
type attemptResult struct {
	replica    *replicaState
	status     int
	header     http.Header
	body       []byte
	err        error
	class      string
	retryAfter time.Duration
}

// relayable reports whether this result should be sent to the client if it
// wins: any complete HTTP exchange that is not a shed or server error.
func (a *attemptResult) relayable() bool {
	return a.err == nil && a.class == attemptOK
}

// forward runs the retry/hedge loop for one request and returns the winning
// result, or nil if no replica could serve it. All scoring endpoints are
// idempotent reads (re-ranking mutates nothing), which is what licenses both
// retrying after an ambiguous failure and hedging in the first place.
func (r *Router) forward(ctx context.Context, key uint64, path string, body []byte, contentType string) *attemptResult {
	r.budget.deposit()
	seq := r.ring.sequence(key)
	tried := make([]bool, len(r.replicas))

	// pick returns the first untried, eligible replica in the key's fallback
	// sequence whose breaker admits a request, marking it tried.
	pick := func() *replicaState {
		for _, i := range seq {
			if tried[i] {
				continue
			}
			rs := r.replicas[i]
			if !rs.eligible() {
				tried[i] = true
				continue
			}
			if !rs.br.allow() {
				tried[i] = true
				continue
			}
			tried[i] = true
			return rs
		}
		return nil
	}

	attempts := 0 // budgeted attempts; draining failovers are free
	var last *attemptResult
	var lastRetryAfter time.Duration
	// The loop is doubly bounded: MaxAttempts caps the budgeted tries and
	// pick() exhausts each replica once, so draining failovers terminate too.
	for attempts < r.cfg.Retry.MaxAttempts {
		if attempts > 0 {
			if !r.budget.withdraw() {
				r.met.budgetExhausted.Inc()
				break
			}
			r.met.retries.Inc()
			if !r.sleepBackoff(ctx, attempts, lastRetryAfter) {
				return last // client gone; nothing to relay anyway
			}
		}
		rs := pick()
		if rs == nil {
			break
		}
		var hedgePick func() *replicaState
		if attempts == 0 && r.cfg.HedgeDelay > 0 {
			hedgePick = pick
		}
		res := r.attemptHedged(ctx, rs, hedgePick, path, body, contentType)
		if res.relayable() {
			return res
		}
		last = res
		lastRetryAfter = res.retryAfter
		switch res.class {
		case attemptShedDraining:
			// The replica asked us to go elsewhere — a redirect, not a
			// failure: free failover, no backoff, no budget charge.
			res.replica.markDraining()
			r.refreshFleetGauges()
		case attemptCanceled:
			return last // the client hung up; stop trying
		default:
			attempts++
		}
	}
	return last
}

// sleepBackoff waits the capped, jittered exponential backoff before retry
// n, stretched to honor an upstream Retry-After. Returns false if the client
// context ended first.
func (r *Router) sleepBackoff(ctx context.Context, n int, retryAfter time.Duration) bool {
	c := r.cfg.Retry
	d := c.BaseBackoff << (n - 1)
	if d > c.MaxBackoff || d <= 0 {
		d = c.MaxBackoff
	}
	// Full jitter on the top half keeps retried requests from re-colliding.
	d = d/2 + time.Duration(r.jitter()*float64(d/2))
	if retryAfter > d {
		d = retryAfter
		if d > c.MaxBackoff {
			d = c.MaxBackoff
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// attemptHedged runs one budgeted attempt with optional hedging: if the
// primary has not answered within HedgeDelay, a hedge starts on the next
// replica in the fallback sequence and the first relayable response wins;
// the loser's request context is canceled. Breaker accounting happens
// inside attempt, in the attempt's own goroutine, so a canceled loser never
// counts against its replica.
func (r *Router) attemptHedged(ctx context.Context, primary *replicaState, hedgePick func() *replicaState, path string, body []byte, contentType string) *attemptResult {
	if hedgePick == nil {
		// Nothing to race: the attempt runs inline, without a goroutine,
		// channel or cancel context of its own.
		return r.attempt(ctx, primary, path, body, contentType)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser once the winner returns

	ch := make(chan *attemptResult, 2)
	launch := func(rs *replicaState) {
		go func() { ch <- r.attempt(actx, rs, path, body, contentType) }()
	}
	launch(primary)
	inFlight := 1

	t := time.NewTimer(r.cfg.HedgeDelay)
	defer t.Stop()
	hedgeC := t.C

	var first *attemptResult
	for {
		select {
		case res := <-ch:
			inFlight--
			if res.relayable() {
				if res.replica != primary {
					r.met.hedgeWins.Inc()
				}
				return res
			}
			if inFlight == 0 {
				// Both lost (or no hedge was running): surface the primary's
				// failure — its class is what the retry loop should react to.
				if first != nil {
					return first
				}
				return res
			}
			first = res
		case <-hedgeC:
			hedgeC = nil
			// Hedges amplify load exactly like retries, so they pay from the
			// same budget.
			if !r.budget.withdraw() {
				r.met.budgetExhausted.Inc()
				continue
			}
			hrs := hedgePick()
			if hrs == nil {
				continue
			}
			r.met.hedges.Inc()
			launch(hrs)
			inFlight++
		}
	}
}

// attempt proxies one request to one replica, classifies the outcome, and
// feeds the replica's breaker. It runs in its own goroutine under hedging;
// everything it touches is either local or thread-safe.
func (r *Router) attempt(ctx context.Context, rs *replicaState, path string, body []byte, contentType string) *attemptResult {
	actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
	defer cancel()
	res := &attemptResult{replica: rs}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, rs.base+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		res.class = attemptTransport
	} else {
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := r.client.Do(req)
		if err != nil {
			res.err = err
			switch {
			case ctx.Err() != nil:
				// The parent context ended: the client hung up or the hedge
				// winner canceled us. Not the replica's fault.
				res.class = attemptCanceled
			case errors.Is(err, context.DeadlineExceeded):
				res.class = attemptTimeout
			default:
				res.class = attemptTransport
			}
		} else {
			res.status = resp.StatusCode
			res.header = resp.Header
			res.body, err = serve.ReadBody(io.LimitReader(resp.Body, maxBodyBytes), resp.ContentLength, nil)
			resp.Body.Close()
			switch {
			case err != nil && ctx.Err() != nil:
				res.err = err
				res.class = attemptCanceled
			case err != nil:
				res.err = err
				res.class = attemptTransport
			default:
				res.class = classifyStatus(resp.StatusCode, resp.Header.Get(serve.ShedReasonHeader))
				res.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
			}
		}
	}
	r.met.attempts.With(res.class).Inc()
	// Breaker accounting: transport errors and 5xx are failures; sheds mean
	// the replica is alive and protecting itself — success, not failure; a
	// canceled attempt is evidence of nothing.
	switch res.class {
	case attemptCanceled:
		rs.br.cancelProbe()
	case attemptTransport, attemptTimeout, attempt5xx:
		rs.br.record(false)
	default:
		rs.br.record(true)
	}
	return res
}

func classifyStatus(status int, shedReason string) string {
	switch {
	case status == http.StatusTooManyRequests:
		return attemptShedBack
	case status == http.StatusServiceUnavailable && shedReason == engine.ShedDraining:
		return attemptShedDraining
	case status >= 500:
		return attempt5xx
	default:
		return attemptOK
	}
}

func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// retryBudget is a token bucket limiting retry+hedge amplification: each
// primary request earns ratio tokens, each retry or hedge spends one. Under
// a fleet-wide outage the bucket drains and retries stop, so the router
// cannot multiply an overload.
type retryBudget struct {
	ratio float64
	cap   float64

	mu     sync.Mutex
	tokens float64
}

func (b *retryBudget) deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

func (b *retryBudget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (b *retryBudget) balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// routerMetrics is the rapid_router_* metric set.
type routerMetrics struct {
	requests           *obs.Counter
	responses          *obs.CounterVec
	attempts           *obs.CounterVec
	retries            *obs.Counter
	budgetExhausted    *obs.Counter
	hedges             *obs.Counter
	hedgeWins          *obs.Counter
	healthy            *obs.GaugeVec
	breakerState       *obs.GaugeVec
	breakerTransitions *obs.CounterVec
	versions           *obs.Gauge
	skew               *obs.Gauge
	latency            *obs.Histogram
}

func newRouterMetrics(r *obs.Registry) *routerMetrics {
	m := &routerMetrics{
		requests: r.Counter("rapid_router_requests_total",
			"Requests accepted by the router."),
		responses: r.CounterVec("rapid_router_responses_total",
			"Responses relayed to clients by outcome class.", "status"),
		attempts: r.CounterVec("rapid_router_attempts_total",
			"Proxied attempts by outcome.", "result"),
		retries: r.Counter("rapid_router_retries_total",
			"Budgeted retry attempts."),
		budgetExhausted: r.Counter("rapid_router_retry_budget_exhausted_total",
			"Retries or hedges suppressed by an empty retry budget."),
		hedges: r.Counter("rapid_router_hedges_total",
			"Hedge attempts launched."),
		hedgeWins: r.Counter("rapid_router_hedge_wins_total",
			"Requests won by the hedge instead of the primary."),
		healthy: r.GaugeVec("rapid_router_replica_healthy",
			"Replica health by id: 1 admitted, 0 ejected.", "replica"),
		breakerState: r.GaugeVec("rapid_router_breaker_state",
			"Replica breaker state by id: 0 closed, 1 open, 2 half-open.", "replica"),
		breakerTransitions: r.CounterVec("rapid_router_breaker_transitions_total",
			"Breaker state entries by destination state.", "state"),
		versions: r.Gauge("rapid_router_model_versions",
			"Distinct model versions advertised by healthy replicas."),
		skew: r.Gauge("rapid_router_version_skew",
			"1 while healthy replicas advertise more than one model version."),
		latency: r.Histogram("rapid_router_request_latency_seconds",
			"End-to-end router latency including retries and hedges.", nil),
	}
	for _, v := range []string{attemptOK, attemptTransport, attemptTimeout,
		attemptCanceled, attempt5xx, attemptShedBack, attemptShedDraining} {
		m.attempts.With(v)
	}
	for _, v := range []string{"ok", "shed", "bad_input", "unavailable", "error"} {
		m.responses.With(v)
	}
	return m
}

// fleetStatus is the GET /admin/fleet introspection document.
type fleetStatus struct {
	Replicas []replicaStatus `json:"replicas"`
	// Versions are the distinct model versions advertised by healthy
	// replicas; VersionSkew is true while there is more than one — expected
	// during a rollout window, an incident if it persists.
	Versions    []string `json:"versions"`
	VersionSkew bool     `json:"version_skew"`
	// RetryBudget is the current token balance of the shared retry budget.
	RetryBudget float64 `json:"retry_budget"`
}

// replicaStatus is one replica's row in fleetStatus.
type replicaStatus struct {
	ID            string `json:"id"`
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	Draining      bool   `json:"draining,omitempty"`
	Breaker       string `json:"breaker"`
	ModelVersion  string `json:"model_version,omitempty"`
	LastError     string `json:"last_error,omitempty"`
	ProbeFailures int    `json:"probe_failures,omitempty"`
}

// fleetStatus snapshots the fleet for /admin/fleet.
func (r *Router) fleetStatus() fleetStatus {
	st := fleetStatus{RetryBudget: r.budget.balance()}
	seen := map[string]bool{}
	for _, rs := range r.replicas {
		healthy, draining, version, lastErr, failures := rs.snapshot()
		st.Replicas = append(st.Replicas, replicaStatus{
			ID:            rs.id,
			URL:           rs.base,
			Healthy:       healthy,
			Draining:      draining,
			Breaker:       rs.br.currentState().String(),
			ModelVersion:  version,
			LastError:     lastErr,
			ProbeFailures: failures,
		})
		if healthy && version != "" && !seen[version] {
			seen[version] = true
			st.Versions = append(st.Versions, version)
		}
	}
	st.VersionSkew = len(st.Versions) > 1
	return st
}
