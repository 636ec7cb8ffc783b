package rapid

import (
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
	RerankBatchRequest = engine.BatchRequest
	// RerankBatchResponse answers a batch envelope item by item.
	RerankBatchResponse = engine.BatchResponse
)

// serverOptions collects what the functional options below configure.
type serverOptions struct {
	cfg     serve.Config
	dataset string
}

// ServerOption configures NewServer.
type ServerOption func(*serverOptions)

// WithDeadline sets the per-request scoring budget; on overrun the response
// degrades to the initial ordering instead of failing (default 50ms).
func WithDeadline(d time.Duration) ServerOption {
	return func(o *serverOptions) { o.cfg.Budget = d }
}

// WithDataset labels the served model's dataset in /healthz and logs
// (default "custom").
func WithDataset(name string) ServerOption {
	return func(o *serverOptions) { o.dataset = name }
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
	return serve.NewServer(model, engine.Manifest{Dataset: o.dataset, Config: model.Cfg}, o.cfg)
}
