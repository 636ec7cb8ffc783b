package rapid

import (
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

// Serving (internal/serve over internal/engine). NewServer wraps a trained
// model in the hardened HTTP serving layer — deadline/degradation envelope,
// bounded scoring pool and the versioned v1 endpoints (POST /v1/rerank, POST
// /v1/rerank:batch).
type (
	// Server is the hardened re-ranking HTTP server.
	Server = serve.Server
	// Scorer is the context-aware scoring interface the server accepts.
	Scorer = engine.Scorer
	// RerankRequest is the wire form of one re-ranking request.
	RerankRequest = engine.Request
	// RerankItem is one candidate item on the wire.
	RerankItem = engine.Item
	// SeqItemWire is one behavior-sequence item on the wire.
	SeqItemWire = engine.SeqItem
	// RerankResponse is the wire form of one re-ranking response.
	RerankResponse = engine.Response
	// RerankBatchRequest is the /v1/rerank:batch envelope.
	RerankBatchRequest = serve.RerankBatchRequest
	// RerankBatchResponse answers a batch envelope item by item.
	RerankBatchResponse = serve.RerankBatchResponse
)

// AdaptReranker lifts a legacy Reranker (its Scores method has no context)
// into the context-aware Scorer interface. RAPID models implement Scorer
// natively and do not need it.
func AdaptReranker(r Reranker) Scorer { return engine.Adapt(r) }

// serverOptions collects what the functional options below configure.
type serverOptions struct {
	cfg     serve.Config
	dataset string
	tenants map[string]*Model
}

// ServerOption configures NewServer.
type ServerOption func(*serverOptions)

// WithDeadline sets the per-request scoring budget; on overrun the response
// degrades to the initial ordering instead of failing (default 50ms).
func WithDeadline(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.cfg.Budget = d }
}

// WithBatchWorkers sets the number of scoring workers (default max(2,
// GOMAXPROCS)).
func WithBatchWorkers(n int) ServerOption {
	return func(o *serverOptions) { o.cfg.Batch.Workers = n }
}

// WithMaxInFlight bounds concurrently executing scoring passes (default
// 4×GOMAXPROCS).
func WithMaxInFlight(n int) ServerOption {
	return func(o *serverOptions) { o.cfg.MaxInFlight = n }
}

// WithQueueWait bounds how long an admitted request may wait for a scoring
// slot before it is shed with 429 (default 10ms).
func WithQueueWait(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.cfg.QueueWait = d }
}

// WithMaxBodyBytes caps the request body size (default 8 MiB).
func WithMaxBodyBytes(n int64) ServerOption {
	return func(o *serverOptions) { o.cfg.MaxBodyBytes = n }
}

// WithDrainTimeout bounds graceful shutdown (default 10s).
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.cfg.DrainTimeout = d }
}

// WithDataset labels the served model's dataset in /healthz and logs
// (default "custom").
func WithDataset(name string) ServerOption {
	return func(o *serverOptions) { o.dataset = name }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ (opt-in; profiling
// endpoints expose heap contents).
func WithPprof() ServerOption {
	return func(o *serverOptions) { o.cfg.Pprof = true }
}

// WithTenant keeps an additional named model resident alongside the primary
// one. Requests naming it in their "tenant" field score against it; requests
// with no tenant keep scoring against the primary model, so adding tenants
// never changes existing callers.
//
//	srv := rapid.NewServer(model, rapid.WithTenant("acme", acmeModel))
func WithTenant(name string, model *Model) ServerOption {
	return func(o *serverOptions) {
		if o.tenants == nil {
			o.tenants = make(map[string]*Model)
		}
		o.tenants[name] = model
	}
}

// WithBinaryListener additionally serves the fleet-internal binary protocol
// (internal/serve/binproto) on ln, backed by the same engine as the HTTP
// routes: same models, limits and metrics, bitwise-identical scores.
func WithBinaryListener(ln net.Listener) ServerOption {
	return func(o *serverOptions) { o.cfg.BinaryListener = ln }
}

// NewServer wraps a RAPID model in the serving layer. Every request goes
// straight to a scoring worker and is answered inside the deadline, by the
// model or — on overrun — by the initial order.
//
//	srv := rapid.NewServer(model, rapid.WithDeadline(50*time.Millisecond))
//	http.ListenAndServe(":8080", srv.Handler())
func NewServer(model *Model, opts ...ServerOption) *Server {
	o := serverOptions{dataset: "custom"}
	for _, opt := range opts {
		opt(&o)
	}
	man := engine.Manifest{Dataset: o.dataset, Config: model.Cfg}
	if len(o.tenants) > 0 {
		tenants := make(engine.StaticTenants, len(o.tenants))
		for name, m := range o.tenants {
			tenants[name] = engine.StaticProvider(engine.Pinned{
				Scorer:   m,
				Manifest: engine.Manifest{Dataset: o.dataset + "/" + name, Config: m.Cfg},
			})
		}
		o.cfg.Tenants = tenants
	}
	return serve.NewServer(model, man, o.cfg)
}
