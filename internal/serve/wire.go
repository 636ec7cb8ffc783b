package serve

import "repro/internal/engine"

// HTTP-only wire types. The request/response bodies themselves are the
// engine's transport-neutral types (engine.Request, engine.Response); what
// remains here is the envelope shapes that exist only on the HTTP surface.

// ReadyStatus is the JSON body of GET /readyz. The bare status-code
// contract is unchanged — 200 while accepting traffic, 503 once drain has
// begun — so probes that only check the code keep working; the body carries
// what a fleet router additionally needs from one probe: the pinned model
// version (its skew detector flags mixed-version windows during rollouts)
// and the draining flag (eject without penalizing the replica's breaker).
type ReadyStatus struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
	// ModelVersion is the active registry version label; empty (and omitted)
	// in the single-model deployment shape.
	ModelVersion string `json:"model_version,omitempty"`
}

// RerankBatchRequest is the wire format of POST /v1/rerank:batch: up to
// engine.MaxBatchRequests independent re-rank requests scored as one envelope.
type RerankBatchRequest struct {
	Requests []engine.Request `json:"requests"`
}

// RerankBatchResponse carries one response per request, in request order.
// Items degrade independently: inspect each response's Degraded/Error
// rather than an envelope-level status.
type RerankBatchResponse struct {
	Responses []engine.Response `json:"responses"`
}
