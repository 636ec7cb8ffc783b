package engine

import (
	"errors"
	"fmt"
)

// ErrCanceled reports that the caller abandoned the request (its context was
// canceled) before a response could be produced. Frontends drop the request
// without serializing a reply — there is nobody left to read it. The engine
// has already counted the request as "canceled".
var ErrCanceled = errors.New("request canceled by caller")

// BadInputError reports a request the engine rejected before scoring:
// geometry mismatches, empty lists, repeated item ids, oversized batches.
// Frontends map it to their protocol's client-error shape (HTTP 400, binary
// code bad_input).
type BadInputError struct {
	Msg string
}

func (e *BadInputError) Error() string { return e.Msg }

// badInput wraps a validation error from ToInstance (or a batch-shape
// violation) as a *BadInputError.
func badInput(err error) error { return &BadInputError{Msg: err.Error()} }

// ShedError reports that the engine refused to admit the request. Reason is
// ShedBackpressure (a slot should free shortly — retry after RetryAfterS),
// ShedDraining (the process is going away — re-route, do not retry here) or
// ShedTenantQuota (this tenant's own concurrency bound is saturated).
// Frontends map it to their protocol's retryable-error shape (HTTP 429/503
// with Retry-After, binary codes overloaded/draining).
type ShedError struct {
	Reason      string
	RetryAfterS int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("request shed (%s), retry after %ds", e.Reason, e.RetryAfterS)
}

// UnknownTenantError reports a request naming a tenant the engine's tenant
// source cannot resolve (or any named tenant when no tenant source is
// configured). Frontends map it to not-found.
type UnknownTenantError struct {
	Tenant string
	// Cause carries the tenant source's own error, if any.
	Cause error
}

func (e *UnknownTenantError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("unknown tenant %q: %v", e.Tenant, e.Cause)
	}
	return fmt.Sprintf("unknown tenant %q", e.Tenant)
}

func (e *UnknownTenantError) Unwrap() error { return e.Cause }
