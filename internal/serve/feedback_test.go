package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

// recordingSink captures Track/Submit calls and lets tests force Submit
// errors — the serve-side contract is tested without internal/feedback.
type recordingSink struct {
	tracked []struct {
		id      string
		route   uint64
		version string
	}
	submitted []engine.FeedbackEvent
	submitErr error
}

func (r *recordingSink) Track(id string, route uint64, version string) {
	r.tracked = append(r.tracked, struct {
		id      string
		route   uint64
		version string
	}{id, route, version})
}

func (r *recordingSink) Submit(ev engine.FeedbackEvent) error {
	if r.submitErr != nil {
		return r.submitErr
	}
	r.submitted = append(r.submitted, ev)
	return nil
}

func postFeedback(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestFeedbackHandlerAccepts(t *testing.T) {
	sink := &recordingSink{}
	s := testServer(t, Config{Feedback: sink})
	ev := engine.FeedbackEvent{RequestID: "abc-1", Items: []int{7, 8, 9}, Clicks: []bool{true, false}}
	w := postFeedback(t, s.Handler(), mustJSON(t, ev))
	if w.Code != http.StatusAccepted {
		t.Fatalf("status %d body %s", w.Code, w.Body.String())
	}
	var out map[string]bool
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || !out["accepted"] {
		t.Fatalf("body %q not {\"accepted\":true}", w.Body.String())
	}
	if len(sink.submitted) != 1 || sink.submitted[0].RequestID != "abc-1" {
		t.Fatalf("sink got %+v", sink.submitted)
	}
}

func TestFeedbackHandlerValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"no request id", `{"items":[1]}`},
		{"no items", `{"request_id":"x"}`},
		{"clicks longer than items", `{"request_id":"x","items":[1],"clicks":[true,false]}`},
		{"oversized request id", `{"request_id":"` + strings.Repeat("a", engine.MaxRequestIDLen+1) + `","items":[1]}`},
	}
	sink := &recordingSink{}
	s := testServer(t, Config{Feedback: sink})
	h := s.Handler()
	for _, tc := range cases {
		if w := postFeedback(t, h, []byte(tc.body)); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
	if len(sink.submitted) != 0 {
		t.Fatalf("invalid events reached the sink: %+v", sink.submitted)
	}
}

func TestFeedbackHandlerBackpressure(t *testing.T) {
	sink := &recordingSink{submitErr: engine.ErrFeedbackBusy}
	s := testServer(t, Config{Feedback: sink})
	w := postFeedback(t, s.Handler(), mustJSON(t, engine.FeedbackEvent{RequestID: "x", Items: []int{1}}))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := w.Header().Get(ShedReasonHeader); got != engine.ShedBackpressure {
		t.Fatalf("%s = %q, want %q", ShedReasonHeader, got, engine.ShedBackpressure)
	}
}

func TestFeedbackHandlerSinkError(t *testing.T) {
	sink := &recordingSink{submitErr: errors.New("disk on fire")}
	s := testServer(t, Config{Feedback: sink})
	w := postFeedback(t, s.Handler(), mustJSON(t, engine.FeedbackEvent{RequestID: "x", Items: []int{1}}))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
}

func TestFeedbackHandlerDraining(t *testing.T) {
	s := testServer(t, Config{Feedback: &recordingSink{}})
	s.SetDraining(true)
	w := postFeedback(t, s.Handler(), mustJSON(t, engine.FeedbackEvent{RequestID: "x", Items: []int{1}}))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := w.Header().Get(ShedReasonHeader); got != engine.ShedDraining {
		t.Fatalf("%s = %q, want %q", ShedReasonHeader, got, engine.ShedDraining)
	}
}

func TestFeedbackNotMountedWithoutSink(t *testing.T) {
	s := testServer(t, Config{})
	w := postFeedback(t, s.Handler(), mustJSON(t, engine.FeedbackEvent{RequestID: "x", Items: []int{1}}))
	if w.Code != http.StatusNotFound {
		t.Fatalf("feedback route answered %d without a sink", w.Code)
	}
}

// TestRerankResponseRequestID is the wire-contract regression for satellite
// 1: every successful /v1/rerank response carries a non-empty request_id
// under exactly that JSON key, ids are unique across requests, and each
// served response is tracked with its id before the body is written.
func TestRerankResponseRequestID(t *testing.T) {
	sink := &recordingSink{}
	s := testServer(t, Config{Feedback: sink})
	h := s.Handler()
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		w := postRerank(t, h, mustJSON(t, validRequest()))
		if w.Code != http.StatusOK {
			t.Fatalf("rerank status %d", w.Code)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		idJSON, ok := raw["request_id"]
		if !ok {
			t.Fatalf("response has no request_id key: %s", w.Body.String())
		}
		var id string
		if err := json.Unmarshal(idJSON, &id); err != nil || id == "" {
			t.Fatalf("request_id %s not a non-empty string", idJSON)
		}
		if seen[id] {
			t.Fatalf("request_id %q reused", id)
		}
		seen[id] = true
	}
	if len(sink.tracked) != 3 {
		t.Fatalf("tracked %d responses, want 3", len(sink.tracked))
	}
	for _, tr := range sink.tracked {
		if !seen[tr.id] {
			t.Fatalf("tracked id %q never appeared on the wire", tr.id)
		}
	}
}

// TestRerankBatchRequestIDs: every successful item of a batch envelope gets
// its own unique request_id; failed items carry none and are not tracked.
func TestRerankBatchRequestIDs(t *testing.T) {
	sink := &recordingSink{}
	s := testServer(t, Config{Feedback: sink})
	bad := validRequest()
	bad.UserFeatures = []float64{1} // wrong dims: per-item validation error
	env := engine.BatchRequest{Requests: []engine.Request{*validRequest(), *bad, *validRequest()}}
	w := postBatch(t, s.Handler(), mustJSON(t, env))
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d body %s", w.Code, w.Body.String())
	}
	var out engine.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("%d responses, want 3", len(out.Responses))
	}
	if out.Responses[0].RequestID == "" || out.Responses[2].RequestID == "" {
		t.Fatalf("successful items missing request_id: %+v", out.Responses)
	}
	if out.Responses[0].RequestID == out.Responses[2].RequestID {
		t.Fatal("batch items share a request_id")
	}
	if out.Responses[1].RequestID != "" {
		t.Fatalf("failed item was issued request_id %q", out.Responses[1].RequestID)
	}
	if len(sink.tracked) != 2 {
		t.Fatalf("tracked %d batch items, want 2 (failed item skipped)", len(sink.tracked))
	}
}

// TestRerankWithoutSinkStillIssuesIDs: request ids are part of the wire
// contract whether or not a feedback sink is configured.
func TestRerankWithoutSinkStillIssuesIDs(t *testing.T) {
	s := testServer(t, Config{})
	w := postRerank(t, s.Handler(), mustJSON(t, validRequest()))
	if w.Code != http.StatusOK {
		t.Fatalf("rerank status %d", w.Code)
	}
	var resp engine.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID == "" {
		t.Fatal("request_id omitted without a feedback sink")
	}
}
