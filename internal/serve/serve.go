// Package serve is the hardened HTTP frontend for the RAPID scoring engine
// (internal/engine). The engine owns the scoring data plane — deadlines,
// graceful degradation, bounded concurrency, the scoring pool, provider
// pinning, the encoded-state cache and multi-tenancy; this package owns only
// what is HTTP: routing, reading request bodies (pooled, size-capped) for the
// engine's schema decoder — encoding/json for whatever that declines — JSON
// encode, the mapping from the engine's typed errors onto status codes and
// the unified error envelope, panic recovery in the handler chain, probes,
// the /metrics exposition, the admin control-plane routes and the
// http.Server lifecycle (timeouts, graceful drain).
//
// Surfaces:
//
//   - POST /v1/rerank, POST /v1/rerank:batch — the scoring endpoints;
//   - POST /v1/feedback — outcome ingestion, mounted when Config.Feedback
//     is set;
//   - GET /healthz, /readyz, /metrics, optional /debug/pprof/ and
//     /admin/models lifecycle routes.
//
// Every error shares one JSON envelope, {"error": {"code", "message",
// "retry_after_s"}}.
//
// A second, non-HTTP frontend for fleet-internal callers lives in
// internal/serve/binproto: the same engine behind a length-prefixed binary
// protocol. Config.BinaryListener serves it from the same Server.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Config bounds the server's resource envelope. The zero value is usable:
// every field falls back to the listed default. The scoring-side fields
// (Budget, MaxInFlight, QueueWait, Batch, StateCacheBytes, Feedback,
// Tenants, TenantMaxInFlight) are handed to the engine verbatim; the rest is
// HTTP-frontend configuration.
type Config struct {
	// Budget is the per-request scoring deadline (default 50ms, the
	// industrial response budget of Section V-B). On overrun the request
	// degrades to the initial-ranker ordering.
	Budget time.Duration
	// MaxInFlight bounds concurrently executing scoring passes (default
	// 4×GOMAXPROCS).
	MaxInFlight int
	// QueueWait is how long an admission may wait for a scoring slot before
	// the request is shed with 429 (default 10ms).
	QueueWait time.Duration
	// MaxBodyBytes caps the request body (default 8 MiB).
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// Registry receives the server's metrics; nil means a private registry
	// (read it back with Server.Registry). Passing one lets a process share
	// a single /metrics namespace across subsystems.
	Registry *obs.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server's
	// handler. Opt-in: profiling endpoints expose heap contents and must be
	// enabled deliberately.
	Pprof bool
	// Admin, when set, mounts the model lifecycle endpoints (GET
	// /admin/models, POST /admin/models/{load,promote,rollback}) backed by
	// this control plane. nil (the default) exposes no admin surface.
	Admin engine.Lifecycle
	// AdminToken guards the admin endpoints: callers must present it as
	// "Authorization: Bearer <token>". Empty restricts admin access to
	// loopback peers instead — model swapping is never unauthenticated on a
	// non-local listener.
	AdminToken string
	// Batch bounds the scoring pool; see engine.BatchConfig.
	Batch engine.BatchConfig
	// StateCacheBytes is the memory budget for the encoded user-state cache;
	// 0 disables it. See engine.Config.StateCacheBytes.
	StateCacheBytes int64
	// Feedback, when set, mounts POST /v1/feedback backed by this sink and
	// correlates every rerank response's request_id to its served (user,
	// version) pair. nil exposes no feedback surface.
	Feedback engine.FeedbackSink
	// Tenants resolves the request "tenant" field to additional resident
	// scorers; see engine.Config.Tenants. nil rejects every named tenant.
	Tenants engine.TenantSource
	// TenantMaxInFlight bounds concurrently admitted single-rerank requests
	// per tenant; see engine.Config.TenantMaxInFlight. 0 disables quotas.
	TenantMaxInFlight int
	// BinaryListener, when set, additionally serves the fleet-internal
	// binary protocol (internal/serve/binproto) on this listener from the
	// same engine; Serve owns the listener and drains it with the HTTP side.
	BinaryListener net.Listener
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// The http.Server's timeouts. A server without read/write timeouts can be
// wedged by a single slow-loris client.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 5 * time.Second
	writeTimeout      = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

// ShedReasonHeader carries the shed reason on 429/503 shed responses so a
// router can distinguish backpressure from drain without parsing the body.
const ShedReasonHeader = "X-Shed-Reason"

// Server is the HTTP frontend over an engine.Engine. The embedded engine
// exposes the scoring-side surface (Stats, Registry, StateCache,
// FlushStateCache, SetDraining, Faults, Log) directly on the Server, so
// existing callers are unaffected by the engine extraction.
type Server struct {
	*engine.Engine
	cfg Config
	met *engine.Metrics
	// jsonFallback counts request bodies the engine's decoder declined and
	// encoding/json decoded instead (decodeBody).
	jsonFallback *obs.Counter
}

// NewServer wraps a single fixed scorer with the hardened handler chain.
// man.Config must describe the scorer's instance geometry (it validates
// incoming requests). For hot-swappable versions use NewProviderServer.
func NewServer(model engine.Scorer, man engine.Manifest, cfg Config) *Server {
	return NewProviderServer(engine.StaticProvider(engine.Pinned{Scorer: model, Manifest: man}), cfg)
}

// NewProviderServer builds a server that asks p for the (model, manifest,
// version) triple of every request — the deployment shape where a registry
// swaps, canaries and shadows model versions underneath live traffic.
func NewProviderServer(p engine.Provider, cfg Config) *Server {
	cfg = cfg.withDefaults()
	eng := engine.New(p, engine.Config{
		Budget:            cfg.Budget,
		MaxInFlight:       cfg.MaxInFlight,
		QueueWait:         cfg.QueueWait,
		DrainTimeout:      cfg.DrainTimeout,
		Registry:          cfg.Registry,
		Batch:             cfg.Batch,
		StateCacheBytes:   cfg.StateCacheBytes,
		Feedback:          cfg.Feedback,
		Tenants:           cfg.Tenants,
		TenantMaxInFlight: cfg.TenantMaxInFlight,
	})
	return &Server{Engine: eng, cfg: cfg, met: eng.Metrics(),
		jsonFallback: eng.Registry().Counter("rapid_json_decode_fallback_total",
			"Re-rank request bodies the schema decoder declined and encoding/json decoded instead (escaped, case-variant or duplicate keys, null, malformed input).")}
}

// Handler returns the full handler chain: routing wrapped in panic
// recovery, with /metrics (and optionally /debug/pprof/) mounted beside the
// serving endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rerank", s.handleRerank)
	mux.HandleFunc("POST /v1/rerank:batch", s.handleRerankBatch)
	if s.cfg.Feedback != nil {
		mux.HandleFunc("POST /v1/feedback", s.handleFeedback)
	}
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", s.Registry().Handler())
	if s.cfg.Admin != nil {
		s.mountAdmin(mux)
	}
	if s.cfg.Pprof {
		obs.RegisterPprof(mux)
	}
	return s.recovered(mux)
}

// recovered converts any handler panic into a 500 instead of a process
// death. Scoring panics never reach here — they are recovered on the scoring
// goroutine and degrade the response — so this is the last line of defense
// for bugs in routing, decoding or encoding.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.met.Panics.Inc()
				s.Log("serve: recovered handler panic on %s %s: %v", r.Method, r.URL.Path, p)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleRerank serves POST /v1/rerank, the single-item scoring route: decode,
// hand to the engine, encode. Everything between — admission, tenancy,
// pinning, deadline, degradation, metrics — is the engine's.
func (s *Server) handleRerank(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req engine.Request
	err := s.decodeBody(w, r, &req, func(body []byte) bool { return engine.DecodeRequestJSON(body, &req) })
	if err != nil {
		s.decodeFailed(w, start, err, false)
		return
	}
	resp, err := s.Engine.Rerank(r.Context(), &req)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.Log("serve: encode response: %v", err)
	}
}

// handleRerankBatch serves POST /v1/rerank:batch: a multi-instance envelope
// scored one job per item. Items are answered independently (per-item
// degraded flags and error strings); see engine.RerankBatch.
func (s *Server) handleRerankBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var breq engine.BatchRequest
	err := s.decodeBody(w, r, &breq, func(body []byte) (ok bool) {
		breq.Requests, ok = engine.DecodeBatchJSON(body)
		return ok
	})
	if err != nil {
		s.decodeFailed(w, start, err, true)
		return
	}
	resps, err := s.Engine.RerankBatch(r.Context(), breq.Requests)
	if err != nil {
		s.writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(engine.BatchResponse{Responses: resps}); err != nil {
		s.Log("serve: encode batch response: %v", err)
	}
}

// decodeFailed accounts and answers a request that never reached the engine
// (malformed JSON or an oversized body). The frontend mirrors the engine's
// entry accounting — received counter, end-to-end latency, terminal status —
// so the request totals on /metrics cover decode failures too, exactly as
// they did when decoding lived inside the scoring handler.
func (s *Server) decodeFailed(w http.ResponseWriter, start time.Time, err error, batch bool) {
	s.met.Requests.Inc()
	if batch {
		s.met.BatchRequests.Inc()
	}
	s.met.BadInput.Inc()
	s.met.Request.ObserveDuration(time.Since(start))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.met.Responses.With("too_large").Inc()
		s.writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), 0)
		return
	}
	s.met.Responses.With("bad_input").Inc()
	s.writeError(w, http.StatusBadRequest, "bad_input", "bad request: "+err.Error(), 0)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	active := s.Provider().Active()
	payload := map[string]any{
		"status":  "ok",
		"dataset": active.Manifest.Dataset,
		"model":   active.Scorer.Name(),
		"topics":  active.Manifest.Config.Topics,
		"hidden":  active.Manifest.Config.Hidden,
		"stats":   s.Stats(),
	}
	if active.Version != "" {
		payload["version"] = active.Version
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(payload)
}

// handleReady is the readiness probe: 200 while the server accepts traffic,
// 503 once drain has begun (so load balancers stop routing new requests) —
// distinct from /healthz, which stays 200 for as long as the process lives.
// Both answers carry an engine.ReadyStatus body: the pinned model version
// feeds a router's skew detector and the draining flag its health prober,
// without a second endpoint or an extra probe. Probes that only check the
// status code keep working.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	draining := s.Draining()
	st := engine.ReadyStatus{
		Ready:        !draining,
		Draining:     draining,
		ModelVersion: s.Provider().Active().Version,
	}
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(st)
}

// NewHTTPServer builds the http.Server with the hardened timeouts.
func (s *Server) NewHTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// Run listens on addr and serves until ctx is canceled (wire it to
// SIGINT/SIGTERM via signal.NotifyContext), then drains gracefully: flips
// /readyz to 503, stops accepting connections, and waits up to DrainTimeout
// for in-flight requests to complete.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run on an existing listener (tests use :0 listeners). When
// Config.BinaryListener is set the binary frontend serves alongside HTTP
// and drains with it.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := s.NewHTTPServer(ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	var stopBinary func(context.Context)
	if s.cfg.BinaryListener != nil {
		stopBinary = s.serveBinary(s.cfg.BinaryListener, errc)
	}
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	s.SetDraining(true)
	s.Log("serve: draining (timeout %v)", s.cfg.DrainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	var derr error
	if err := hs.Shutdown(sctx); err != nil {
		derr = fmt.Errorf("serve: drain incomplete: %w", err)
	}
	if stopBinary != nil {
		stopBinary(sctx)
	}
	// All in-flight handlers have returned; flush stragglers and stop the
	// scoring workers.
	s.Engine.Close()
	return derr
}
