package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/engine"
)

// errorBody is the unified v1 error envelope: every non-2xx answer on
// /v1/rerank, /v1/rerank:batch, /v1/feedback and the admin routes carries
// {"error": {"code", "message", "retry_after_s"}}. Code is a stable
// machine-readable label (see the errCode* constants); Message is for
// humans and may change; RetryAfterS mirrors the Retry-After header on
// retryable (shed) errors so programmatic clients need not parse headers.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// errorDetail is the envelope payload.
type errorDetail struct {
	Code        string `json:"code"`
	Message     string `json:"message"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// Stable error codes of the v1 surface.
const (
	errCodeBadInput       = "bad_input"       // malformed or geometry-mismatched request (400)
	errCodeTooLarge       = "too_large"       // body over MaxBodyBytes (413)
	errCodeOverloaded     = "overloaded"      // shed: backpressure or tenant quota (429)
	errCodeDraining       = "draining"        // shed: replica going away (503)
	errCodeUnknownTenant  = "unknown_tenant"  // request named a tenant the server cannot serve (404)
	errCodeUnknownVersion = "unknown_version" // admin: version not found (404)
	errCodeConflict       = "conflict"        // admin: lifecycle state conflict (409)
	errCodeUnprocessable  = "unprocessable"   // admin: artifact or state cannot be processed (422)
	errCodeForbidden      = "forbidden"       // admin guard rejected the caller (403)
	errCodeInternal       = "internal"        // recovered handler bug (500)
)

// writeError answers with the v1 envelope.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, retryAfterS int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: errorDetail{Code: code, Message: msg, RetryAfterS: retryAfterS}})
}

// writeEngineError maps the engine's typed errors onto the HTTP surface:
// *BadInputError → 400, *UnknownTenantError → 404, *ShedError → 429/503
// with Retry-After and X-Shed-Reason, ErrCanceled → nothing (the client is
// gone), anything else → 500. The engine has already accounted the request;
// this only shapes the answer.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	var bad *engine.BadInputError
	var shed *engine.ShedError
	var tenant *engine.UnknownTenantError
	switch {
	case errors.Is(err, engine.ErrCanceled):
		// Client disconnected mid-request; nothing to answer.
	case errors.As(err, &bad):
		s.writeError(w, http.StatusBadRequest, errCodeBadInput, bad.Msg, 0)
	case errors.As(err, &tenant):
		s.writeError(w, http.StatusNotFound, errCodeUnknownTenant, err.Error(), 0)
	case errors.As(err, &shed):
		w.Header().Set(ShedReasonHeader, shed.Reason)
		w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfterS))
		if shed.Reason == engine.ShedDraining {
			s.writeError(w, http.StatusServiceUnavailable, errCodeDraining,
				"draining, replica going away", shed.RetryAfterS)
			return
		}
		s.writeError(w, http.StatusTooManyRequests, errCodeOverloaded,
			"overloaded, retry later", shed.RetryAfterS)
	default:
		s.Log("serve: unexpected engine error: %v", err)
		s.writeError(w, http.StatusInternalServerError, errCodeInternal, "internal error", 0)
	}
}
