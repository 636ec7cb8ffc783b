package engine

import (
	"errors"
	"fmt"
)

// MaxRequestIDLen caps the request_id echoed in feedback events; engine-issued
// ids are far shorter, so anything longer is a hostile or corrupted client.
const MaxRequestIDLen = 128

// FeedbackEvent is one observed outcome for a previously served re-rank
// response, transport-neutral (the HTTP frontend decodes it from POST
// /v1/feedback). Items is the displayed order (normally the response's
// Ranked); Clicks is aligned with Items and may be shorter (missing
// positions are skips). An event with no true click is an impression —
// skip/abandon signal matters to the click model too.
type FeedbackEvent struct {
	// RequestID echoes the request_id of the rerank response the event
	// reports on; the ingestor joins it back to the served (user, version).
	RequestID string `json:"request_id"`
	Items     []int  `json:"items"`
	Clicks    []bool `json:"clicks,omitempty"`
	// ModelVersion optionally echoes the response's model_version; the
	// server-side correlation wins when both are present (the client copy is
	// advisory and unauthenticated).
	ModelVersion string `json:"model_version,omitempty"`
}

// FeedbackSink is the seam between the scoring data plane and the feedback
// subsystem (internal/feedback implements it). Both methods are called on
// the request path and must not block: Track records which (user, version)
// a response was served from, Submit enqueues an ingested event and reports
// ErrFeedbackBusy when the bounded ingest queue is full — frontends shed the
// event (HTTP 429), mirroring the rerank backpressure contract.
type FeedbackSink interface {
	Track(requestID string, user uint64, version string)
	Submit(ev FeedbackEvent) error
}

// ErrFeedbackBusy is returned by FeedbackSink.Submit when the ingest queue
// is full; frontends shed the event with their retryable-error shape.
var ErrFeedbackBusy = errors.New("feedback ingest queue full")

// Validate applies the wire-level invariants shared by the HTTP handler and
// the decode fuzz target.
func (ev *FeedbackEvent) Validate() error {
	switch {
	case ev.RequestID == "":
		return fmt.Errorf("request_id is required")
	case len(ev.RequestID) > MaxRequestIDLen:
		return fmt.Errorf("request_id exceeds %d bytes", MaxRequestIDLen)
	case len(ev.Items) == 0:
		return fmt.Errorf("items is required")
	case len(ev.Items) > maxListLength:
		return fmt.Errorf("event has %d items, limit is %d", len(ev.Items), maxListLength)
	case len(ev.Clicks) > len(ev.Items):
		return fmt.Errorf("clicks has %d entries for %d items", len(ev.Clicks), len(ev.Items))
	}
	return nil
}
