package engine

import (
	"errors"
	"fmt"
)

// ErrUnknownVersion marks a lifecycle operation naming a version the
// registry cannot find (on disk or in memory). Lifecycle implementations
// wrap it so the distinction survives every package and transport boundary;
// the HTTP frontend answers it with 404.
var ErrUnknownVersion = errors.New("unknown model version")

// ErrLifecycleConflict marks a lifecycle operation that is invalid in the
// current state (promoting when no candidate is staged, rolling back with no
// history). The HTTP frontend answers it with 409.
var ErrLifecycleConflict = errors.New("lifecycle conflict")

// VersionStatus is one row of a Versions listing: a version on disk or in
// memory and its place in the lifecycle.
type VersionStatus struct {
	Version string `json:"version"`
	// State is "active", "candidate", "previous" (the rollback target) or
	// "available" (on disk, not loaded).
	State   string `json:"state"`
	Dataset string `json:"dataset,omitempty"`
	// Requests and Degraded are the version's served-traffic counters since
	// it was loaded (zero for available versions).
	Requests int64 `json:"requests"`
	Degraded int64 `json:"degraded"`
}

// String formats a status row for logs.
func (v VersionStatus) String() string {
	return fmt.Sprintf("%s(%s)", v.Version, v.State)
}

// Lifecycle is the model lifecycle control plane, transport-free: the
// registry implements it in-process, the HTTP frontend serves it under
// /admin/models and its AdminClient speaks it over the wire, and the
// feedback trainer drives whichever it is handed. Errors wrap
// ErrUnknownVersion or ErrLifecycleConflict where those apply.
type Lifecycle interface {
	// Versions lists every version on disk and in memory with its state.
	Versions() ([]VersionStatus, error)
	// Load reads a version from disk, warm-up validates it and stages it as
	// the canary candidate (or activates it when nothing is active yet).
	Load(version string) error
	// Promote makes the named candidate the active model.
	Promote(version string) error
	// Rollback aborts the candidate canary, or — with no candidate staged —
	// reverts the active model to the previous one. It returns a
	// human-readable description of what was rolled back.
	Rollback() (string, error)
}

// ReadyStatus is a replica's readiness answer. Frontends serve it beside
// their bare ready/not-ready signal; it carries what a fleet router needs
// from one probe: the pinned model version (its skew detector flags
// mixed-version windows during rollouts) and the draining flag (eject
// without penalizing the replica's breaker).
type ReadyStatus struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining,omitempty"`
	// ModelVersion is the active registry version label; empty (and omitted)
	// in the single-model deployment shape.
	ModelVersion string `json:"model_version,omitempty"`
}

// BatchRequest is a multi-request envelope: up to MaxBatchRequests
// independent re-rank requests scored as one RerankBatch call.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResponse carries one response per request, in request order. Items
// degrade independently: inspect each response's Degraded/Error rather than
// an envelope-level status.
type BatchResponse struct {
	Responses []Response `json:"responses"`
}
