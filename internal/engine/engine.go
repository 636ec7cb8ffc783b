// Package engine is the transport-neutral scoring engine for a trained
// RAPID model (and for the weightless diversifier suite served through the
// same seam). The paper's efficiency analysis (Section V-B) positions
// re-ranking as a stage inside an industrial response budget (~50 ms); a
// stage in that position must degrade, shed or drain — never stall or crash
// the chain it sits in. The engine therefore enforces, per request:
//
//   - a scoring deadline (Config.Budget) with graceful degradation: on
//     overrun, scoring error or recovered scoring panic the response falls
//     back to the initial-ranker ordering and is marked "degraded" instead
//     of erroring;
//   - bounded concurrency: a semaphore with a bounded queue wait sheds
//     excess load (*ShedError) rather than queueing unboundedly;
//   - one scoring pool whose unit of work is one scored list: a request's
//     job goes straight to a worker and never waits for batch-mates, and a
//     RerankBatch envelope is one such job per item;
//   - an optional encoded user-state cache (the repeat-user fast path);
//   - multi-tenancy: a request may name a resident tenant scorer
//     (Config.Tenants), with per-tenant quotas and metrics.
//
// The engine knows nothing about HTTP: frontends (internal/serve for JSON
// over HTTP, internal/serve/binproto for the length-prefixed binary
// protocol) decode their wire format into Request, call Rerank/RerankBatch,
// and map the typed errors (*BadInputError, *ShedError,
// *UnknownTenantError, ErrCanceled) onto their protocol's status shapes.
// Every hot-path event lands in an internal/obs registry shared with the
// frontends.
//
// The engine scores through a Provider — a per-request (model, manifest,
// version) pin — so a model lifecycle layer (internal/registry) can swap,
// canary and shadow versions underneath live traffic; NewStatic wraps a
// fixed model in a static provider for the single-model shape.
package engine

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config bounds the engine's resource envelope. The zero value is usable:
// every field falls back to the listed default.
type Config struct {
	// Budget is the per-request scoring deadline (default 50ms, the
	// industrial response budget of Section V-B). On overrun the request
	// degrades to the initial-ranker ordering.
	Budget time.Duration
	// MaxInFlight bounds concurrently executing scoring passes (default
	// 4×GOMAXPROCS). Scoring is CPU-bound; admitting more than a small
	// multiple of the cores only grows tail latency.
	MaxInFlight int
	// QueueWait is how long an admission may wait for a scoring slot before
	// the request is shed (default 10ms).
	QueueWait time.Duration
	// DrainTimeout is the graceful-shutdown window frontends advertise in
	// draining sheds' Retry-After hints (default 10s).
	DrainTimeout time.Duration
	// Registry receives the engine's metrics; nil means a private registry
	// (read it back with Engine.Registry). Passing one lets a process share
	// a single /metrics namespace across subsystems.
	Registry *obs.Registry
	// Batch bounds the scoring pool; see BatchConfig. The zero value takes the
	// default (max(2, GOMAXPROCS) workers).
	Batch BatchConfig
	// StateCacheBytes is the memory budget for the encoded user-state cache
	// (the repeat-user fast path). 0, the default, disables the cache. The
	// cache only engages for scorers implementing StateScorer; wire
	// Engine.FlushStateCache to the model lifecycle (Registry.SetOnSwap) so a
	// promote or rollback can never serve a stale state.
	StateCacheBytes int64
	// Feedback, when set, receives a Track call correlating every rerank
	// response's request_id to its served (user, version) pair. Frontends
	// additionally route submitted feedback events to the same sink. nil
	// disables correlation; responses still carry request ids either way.
	Feedback FeedbackSink
	// Tenants resolves the Request.Tenant field to additional resident
	// providers. nil (the default) rejects every named tenant; requests with
	// an empty tenant always go to the engine's own provider.
	Tenants TenantSource
	// TenantMaxInFlight, when positive, bounds concurrently admitted calls
	// per tenant (the default tenant included). A call — one Rerank or one
	// RerankBatch envelope — takes one quota slot for each distinct tenant
	// among its valid requests, the same unit as its one MaxInFlight slot,
	// and holds both until its last scorer ends. A request whose tenant is
	// saturated is shed with reason tenant_quota instead of queueing (a
	// *ShedError from Rerank, the item's Error in an envelope), so one hot
	// tenant cannot occupy every scoring slot.
	TenantMaxInFlight int
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 50 * time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Batch.Workers <= 0 {
		c.Batch.Workers = max(2, runtime.GOMAXPROCS(0))
	}
	return c
}

// Stats are the engine's operational counters. The same numbers back the
// /metrics exposition: both views read the one set of registry atomics, so
// they can never disagree.
type Stats struct {
	Requests  int64 `json:"requests"`
	Degraded  int64 `json:"degraded"`
	Shed      int64 `json:"shed"`
	Panics    int64 `json:"panics_recovered"`
	BadInput  int64 `json:"bad_input"`
	Responses int64 `json:"responses_ok"`
}

// Shed reasons, exported so a fleet router can match the X-Shed-Reason
// header without restating the strings. A backpressure shed means "come
// back shortly — a slot will free"; a draining shed means "this replica is
// going away — re-route, do not retry here"; a tenant-quota shed means
// "this tenant's own concurrency bound is saturated".
const (
	ShedBackpressure = "backpressure"
	ShedDraining     = "draining"
	shedTenantQuota  = "tenant_quota"
)

// MaxBatchRequests caps the instances one RerankBatch call may carry. The
// envelope is admitted as one call, like a single request: one MaxInFlight
// slot and one quota slot per distinct tenant. An unbounded envelope would
// let a single caller monopolize the scoring pool under one slot.
const MaxBatchRequests = 64

// Engine owns the scoring data plane behind a transport-neutral API.
type Engine struct {
	cfg        Config
	provider   Provider
	sem        chan struct{}
	draining   atomic.Bool
	reg        *obs.Registry
	met        *Metrics
	pool       *scorePool
	stateCache *StateCache // nil when Config.StateCacheBytes == 0
	idPrefix   string      // per-process request-id prefix
	reqSeq     atomic.Uint64

	tenantMu   sync.Mutex
	tenantSems map[string]chan struct{} // per-tenant quota, lazily created

	// Faults is the chaos-testing seam; nil in production.
	Faults *FaultHooks
	// Log receives operational messages; defaults to log.Printf.
	Log func(format string, args ...any)
}

// NewStatic wraps a single fixed scorer as an engine. man.Config must
// describe the scorer's instance geometry (it validates incoming requests).
// For hot-swappable versions use New with a Provider.
func NewStatic(model Scorer, man Manifest, cfg Config) *Engine {
	return New(staticProvider{pin: Pinned{Scorer: model, Manifest: man}}, cfg)
}

// New builds an engine that asks p for the (model, manifest, version)
// triple of every request — the deployment shape where a registry swaps,
// canaries and shadows model versions underneath live traffic.
func New(p Provider, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:        cfg,
		provider:   p,
		sem:        make(chan struct{}, cfg.MaxInFlight),
		reg:        reg,
		met:        newMetrics(reg),
		idPrefix:   newIDPrefix(),
		tenantSems: make(map[string]chan struct{}),
		Log:        log.Printf,
	}
	e.pool = newScorePool(e)
	if cfg.StateCacheBytes > 0 {
		e.stateCache = newStateCache(cfg.StateCacheBytes, e.met)
	}
	return e
}

// Registry exposes the engine's metric registry so a binary can add its own
// metrics to the same /metrics namespace.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Metrics exposes the engine's metric set so frontends can account their
// own pre-engine failures (decode errors, oversized bodies) in the same
// counters the dashboards read.
func (e *Engine) Metrics() *Metrics { return e.met }

// Provider exposes the engine's default-tenant provider (health surfaces
// report its active pin).
func (e *Engine) Provider() Provider { return e.provider }

// DrainWindow reports the configured drain timeout after defaulting.
func (e *Engine) DrainWindow() time.Duration { return e.cfg.DrainTimeout }

// SetDraining flips the engine's drain flag. A draining engine finishes
// what it admitted but sheds everything new with reason ShedDraining, so a
// fleet router re-routes now and stops retrying a replica that is going
// away.
func (e *Engine) SetDraining(v bool) { e.draining.Store(v) }

// Draining reports whether the engine is refusing new work.
func (e *Engine) Draining() bool { return e.draining.Load() }

// Close stops the scoring workers once everything dispatched has scored.
// Call it after every frontend has stopped submitting (an HTTP frontend calls
// it once Shutdown returns). Idempotent.
func (e *Engine) Close() { e.pool.close() }

// newIDPrefix draws the per-process request-id prefix. Randomness makes ids
// unique across replicas and restarts without coordination; crypto/rand
// failure (no entropy device) falls back to a pid-free constant — ids are
// then unique only within the process, which the correlation table is.
func newIDPrefix() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "local"
	}
	return hex.EncodeToString(b[:])
}

// newRequestID issues the response's request_id: process prefix + sequence.
// Cheap (one atomic add, one allocation: the id is assembled on the stack)
// because every response pays it; the id is opaque to clients — its only
// contract is echoing it back in feedback events.
func (e *Engine) newRequestID() string {
	var buf [32]byte
	b := append(append(buf[:0], e.idPrefix...), '-')
	return string(strconv.AppendUint(b, e.reqSeq.Add(1), 36))
}

// Stats snapshots the operational counters from the metric registry. Each
// field is one atomic load; the struct is a consistent-enough scrape (see
// the obs package comment), and every field is individually exact.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:  e.met.Requests.Value(),
		Degraded:  obs.Total(e.met.Degraded),
		Shed:      obs.Total(e.met.Shed),
		Panics:    e.met.Panics.Value(),
		BadInput:  e.met.BadInput.Value(),
		Responses: e.met.ResponsesOK.Value(),
	}
}

// RetryAfterS derives a backpressure backoff hint (in whole seconds) from
// current pressure instead of a constant: an idle-but-bursty engine
// suggests 1s, a saturated one up to 4s, and ±1s of jitter spreads the
// retries of a shed wave so the clients do not come back in lockstep and
// shed again.
func (e *Engine) RetryAfterS() int {
	base := 1 + (3*len(e.sem))/cap(e.sem)
	sec := base + rand.IntN(3) - 1
	if sec < 1 {
		sec = 1
	}
	return sec
}

// shed accounts a refused request (or envelope item) by reason and builds
// its typed error; the call's terminal status is counted by rerank. tenant
// labels tenant-quota sheds only.
func (e *Engine) shed(reason, tenant string) *ShedError {
	switch reason {
	case ShedDraining:
		e.met.ShedDrain.Inc()
		return &ShedError{Reason: reason, RetryAfterS: max(1, int(e.cfg.DrainTimeout/time.Second))}
	case shedTenantQuota:
		e.met.Shed.With(shedTenantQuota).Inc()
		e.met.TenantShed.With(tenant).Inc()
	default:
		e.met.ShedBack.Inc()
	}
	return &ShedError{Reason: reason, RetryAfterS: e.RetryAfterS()}
}

// acquireSlot takes one scoring slot, waiting at most QueueWait for it; on
// failure the error (a *ShedError or ErrCanceled) is the one to return. A
// free slot is taken without arming the timer, so an idle engine admits
// however short QueueWait is — with the timer armed first, a QueueWait of
// nanoseconds could expire before the select and shed a request nothing
// stood in the way of.
func (e *Engine) acquireSlot(ctx context.Context) error {
	qstart := time.Now()
	select {
	case e.sem <- struct{}{}:
	default:
		admit := time.NewTimer(e.cfg.QueueWait)
		defer admit.Stop()
		select {
		case e.sem <- struct{}{}:
		case <-admit.C:
			// A drain that began while the request waited is a draining
			// shed: the slot will never free for new work.
			if e.draining.Load() {
				return e.shed(ShedDraining, "")
			}
			return e.shed(ShedBackpressure, "")
		case <-ctx.Done():
			return ErrCanceled
		}
	}
	e.met.QueueWait.ObserveDuration(time.Since(qstart))
	return nil
}

// providerFor resolves a request's tenant field to (metric label, provider).
func (e *Engine) providerFor(name string) (string, Provider, error) {
	if name == "" {
		return defaultTenant, e.provider, nil
	}
	if e.cfg.Tenants == nil {
		return name, nil, &UnknownTenantError{Tenant: name}
	}
	p, err := e.cfg.Tenants.Tenant(name)
	if err != nil {
		var ut *UnknownTenantError
		if errors.As(err, &ut) {
			return name, nil, err
		}
		return name, nil, &UnknownTenantError{Tenant: name, Cause: err}
	}
	return name, p, nil
}

// tenantAcquire admits one of c's requests under its tenant's quota (when
// quotas are configured): the call takes one slot per distinct tenant, so a
// tenant it already holds admits at once. Non-blocking: a saturated tenant
// sheds immediately rather than queueing — the global QueueWait already
// absorbs bursts, and waiting here would let a hot tenant's backlog delay
// everyone behind it in the handler.
func (e *Engine) tenantAcquire(c *call, tenant string) bool {
	if e.cfg.TenantMaxInFlight <= 0 {
		return true
	}
	e.tenantMu.Lock()
	sem := e.tenantSems[tenant]
	if sem == nil {
		sem = make(chan struct{}, e.cfg.TenantMaxInFlight)
		e.tenantSems[tenant] = sem
	}
	e.tenantMu.Unlock()
	if slices.Contains(c.quota, sem) {
		return true
	}
	select {
	case sem <- struct{}{}:
		c.quota = append(c.quota, sem)
		return true
	default:
		return false
	}
}

type scoreOutcome struct {
	scores   []float64
	err      error
	panicked bool
}

// resolve pins and validates one request into the job it becomes: tenant →
// provider → user key → pin → instance. The pin comes before the validation
// because the pinned version's geometry is the contract the request must
// meet, and the same pin then serves scoring and response labeling, so a
// version swap mid-request can never mix models. A failure is an
// *UnknownTenantError or a *BadInputError, already counted as bad input.
func (e *Engine) resolve(req *Request, j *scoreJob) error {
	tenant, prov, err := e.providerFor(req.Tenant)
	if err != nil {
		e.met.BadInput.Inc()
		return err
	}
	e.met.TenantRequests.With(tenant).Inc()
	user := UserKey(req)
	pin := prov.Pick(user)
	inst, err := ToInstance(pin.Manifest.Config, req)
	if err != nil {
		e.met.BadInput.Inc()
		return badInput(err)
	}
	*j = scoreJob{inst: inst, pin: pin, tenant: tenant, user: user, done: make(chan struct{})}
	j.key, j.hasKey = e.stateKeyFor(req, tenant, pin)
	return nil
}

// await waits for a dispatched job's outcome or for the end of its scoring
// context — the caller's context bounded by Budget — and builds the answer:
// the model's ordering, or the graceful-degradation fallback. Only a cancel of
// the caller's context means nobody is left to read (ErrCanceled, no
// response); a deadline, whether the engine's Budget or a tighter one the
// caller brought and whether the scorer or the engine saw it first, degrades
// with reason "deadline", a recovered panic with "panic", any other scoring
// error with "error". The fallback is the initial ranker's ordering: a
// re-ranking stage that cannot answer in budget must hand back the list it
// was given — the upstream ranking is always a valid (if less diverse)
// answer, while an error would cost the impression. The worker may still be
// scoring when await returns; its late outcome lands in the job, which
// nobody reads any more.
func (e *Engine) await(ctx context.Context, j *scoreJob) (Response, error) {
	var out scoreOutcome
	select {
	case <-j.done:
		out = j.out
	case <-j.ctx.Done():
		out.err = j.ctx.Err()
	}
	reason := "error"
	switch {
	case out.err == nil:
		ranked, scores := rankBy(j.inst.Items, out.scores)
		return Response{Ranked: ranked, Scores: scores}, nil
	case errors.Is(out.err, context.Canceled) && ctx.Err() != nil:
		return Response{}, ErrCanceled
	case out.panicked:
		reason = "panic"
	case errors.Is(out.err, context.DeadlineExceeded), errors.Is(out.err, context.Canceled):
		reason = "deadline"
	}
	e.met.Degraded.With(reason).Inc()
	ranked, scores := FallbackOrder(j.inst)
	return Response{Ranked: ranked, Scores: scores, Degraded: true, DegradedReason: reason}, nil
}

// label stamps a response that will reach its caller with the pin that
// served it, its latency and a fresh request id — tracked before the
// response is handed back, so a feedback event can never race ahead of its
// correlation entry — and reports the outcome ("ok" or the degrade reason)
// to the pin's lifecycle hook.
func (e *Engine) label(resp *Response, j *scoreJob, elapsed time.Duration) {
	resp.ModelVersion = j.pin.Version
	resp.Canary = j.pin.Canary
	resp.LatencyMS = float64(elapsed.Microseconds()) / 1000
	resp.RequestID = e.newRequestID()
	if e.cfg.Feedback != nil {
		e.cfg.Feedback.Track(resp.RequestID, j.user, j.pin.Version)
	}
	if j.pin.Observe != nil {
		outcome := "ok"
		if resp.Degraded {
			outcome = resp.DegradedReason
		}
		j.pin.Observe(outcome, elapsed)
	}
}

// Rerank scores one request end to end: it is an envelope of one through
// rerank. It returns a typed error — *BadInputError, *ShedError,
// *UnknownTenantError or ErrCanceled — when no response was produced;
// degradation is not an error (the Response carries Degraded/DegradedReason
// instead).
func (e *Engine) Rerank(ctx context.Context, req *Request) (Response, error) {
	var resp [1]Response
	err := e.rerank(ctx, []Request{*req}, resp[:], false)
	return resp[0], err
}

// RerankBatch scores up to MaxBatchRequests independent requests as one
// envelope. Each item is resolved and answered independently (per-item
// degraded flags and error strings); the envelope is admitted as one call,
// like a single request, under one Budget deadline. Envelope-level counters observe the
// request once; per-item degradations still land in the per-reason degraded
// counters. The returned slice is in request order; a typed error means no
// responses were produced at all.
func (e *Engine) RerankBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	e.met.BatchRequests.Inc()
	var resps []Response
	if n := len(reqs); n > 0 && n <= MaxBatchRequests {
		e.met.BatchItems.Add(int64(n))
		resps = make([]Response, n)
	}
	if err := e.rerank(ctx, reqs, resps, true); err != nil {
		return nil, err
	}
	return resps, nil
}

// rerank is the one request pipeline behind Rerank and RerankBatch: resolve
// every request, admit the call, dispatch one job per admitted request to the
// pool, await and label. Admission is one rule whatever the call's size: one
// quota slot per distinct tenant among the resolved requests (tenantAcquire),
// then one MaxInFlight slot (acquireSlot). Release is one rule too: finish
// gives every slot back when the call's last job ends on its worker, not when
// rerank returns — an abandoned (deadline-overrun) scorer still occupies CPU,
// and only this accounting keeps both bounds honest. All requests are
// resolved before the first slot is taken, so nothing that can fail runs
// between taking a slot and dispatching the jobs that give it back.
//
// A request that fails to resolve or admit becomes its response's Error in an
// envelope and the call's error otherwise. The call counts once in
// rapid_http_responses_total: ok if any request scored, degraded if any
// reached scoring, else the status of its failures.
func (e *Engine) rerank(ctx context.Context, reqs []Request, resps []Response, envelope bool) (err error) {
	start := time.Now()
	e.met.Requests.Inc()
	status := "bad_input"
	defer func() {
		// The errors rerank returns are its own, unwrapped.
		if _, shed := err.(*ShedError); shed {
			status = "shed"
		} else if errors.Is(err, ErrCanceled) {
			status = "canceled"
		}
		if status == "ok" {
			e.met.ResponsesOK.Inc()
		} else {
			e.met.Responses.With(status).Inc()
		}
		e.met.Request.ObserveDuration(time.Since(start))
	}()

	// A draining engine finishes what it admitted but takes nothing new.
	if e.draining.Load() {
		return e.shed(ShedDraining, "")
	}
	if n := len(reqs); n == 0 || n > MaxBatchRequests {
		e.met.BadInput.Inc()
		return badInput(fmt.Errorf("batch must carry 1..%d requests, got %d", MaxBatchRequests, n))
	}
	refuse := func(i int, err error) error {
		if envelope {
			resps[i].Error = err.Error()
			return nil
		}
		return err
	}
	c := &call{}
	if c.jobs = c.one[:]; len(reqs) > 1 {
		c.jobs = make([]scoreJob, len(reqs))
	}
	n := 0
	for i := range reqs {
		if err := e.resolve(&reqs[i], &c.jobs[n]); err != nil {
			if err = refuse(i, err); err != nil {
				return err
			}
			continue
		}
		c.jobs[n].idx, c.jobs[n].call = i, c
		n++
	}
	admitted := c.jobs[:0]
	for k := range c.jobs[:n] {
		if j := &c.jobs[k]; !e.tenantAcquire(c, j.tenant) {
			status = "shed"
			if err := refuse(j.idx, e.shed(shedTenantQuota, j.tenant)); err != nil {
				return err
			}
			continue
		}
		admitted = append(admitted, c.jobs[k])
	}
	if c.jobs = admitted; len(c.jobs) == 0 {
		return nil // an envelope whose every item carries its Error
	}
	if err := e.acquireSlot(ctx); err != nil {
		c.releaseQuota()
		return err
	}
	// Every job runs under the call's one scoring context.
	sctx, cancel := context.WithTimeout(ctx, e.cfg.Budget)
	defer cancel()
	c.left.Store(int32(len(c.jobs)))
	for k := range c.jobs {
		c.jobs[k].ctx = sctx
		e.pool.dispatch(&c.jobs[k])
	}
	status = "degraded"
	for k := range c.jobs {
		j := &c.jobs[k]
		if resps[j.idx], err = e.await(ctx, j); err != nil {
			return err
		}
		if !resps[j.idx].Degraded {
			status = "ok"
		}
	}
	// Each item gets its own request id: feedback joins per impression, and
	// an envelope is just transport.
	elapsed := time.Since(start)
	for k := range c.jobs {
		e.label(&resps[c.jobs[k].idx], &c.jobs[k], elapsed)
	}
	return nil
}
