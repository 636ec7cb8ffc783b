package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/engine"
)

// declinedBodies holds one body per reason the engine's schema decoder hands
// a request back to encoding/json, built around the test geometry's valid
// request so that the ones encoding/json accepts score.
func declinedBodies(t *testing.T) []string {
	valid := string(mustJSON(t, validRequest()))
	swap := func(old, new string) string {
		if !strings.Contains(valid, old) {
			t.Fatalf("valid request has no %q", old)
		}
		return strings.Replace(valid, old, new, 1)
	}
	return []string{
		valid,
		" \t" + swap(`"id":7`, ` "id" : 7 `) + "\r\n",
		swap(`"id":7`, `"ID":7`),
		swap(`"user_features"`, `"USER_features"`),
		swap(`"id":7`, `"id":1,"id":7`),
		swap(`"id":7`, `"\u0069d":7`),
		swap(`"features":[0.5,0.1]`, `"features":null`),
		swap(`"id":7`, `"id":7.0`),
		swap(`"id":7`, `"id":"7"`),
		swap(`0.9`, `1e999`),
		swap(`0.9`, `-0`),
		swap(`0.9`, `1e-7`),
		swap(`0.9`, `01`),
		swap(`0.9`, `-`),
		swap(`{"user_features"`, `{"x":`+strings.Repeat("[", 100)+strings.Repeat("]", 100)+`,"user_features"`),
		swap(`{"user_features"`, `{"tenant":null,"user_features"`),
		swap(`{"user_features"`, `{"tenant":"ghost","user_features"`),
		valid + " x",
		valid + valid,
		valid[:len(valid)/2],
		`{"id"`,
		`null`,
		`[]`,
		``,
	}
}

// TestDeclinedBodiesMatchEncodingJSON: whatever the schema decoder takes or
// declines, /v1/rerank answers with the status and body encoding/json alone
// would have produced — the decoder it replaced on the request path and
// still the reference. The expectation is computed here, from encoding/json
// and the engine, not recorded.
func TestDeclinedBodiesMatchEncodingJSON(t *testing.T) {
	s := stubServer(t, Config{})
	ref := stubServer(t, Config{})
	h := s.Handler()
	for _, body := range declinedBodies(t) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/rerank", strings.NewReader(body)))

		wantStatus, wantMsg := http.StatusOK, ""
		var req engine.Request
		var want engine.Response
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			wantStatus, wantMsg = http.StatusBadRequest, "bad request: "+err.Error()
		} else if want, err = ref.Engine.Rerank(context.Background(), &req); err != nil {
			var bad *engine.BadInputError
			var tenant *engine.UnknownTenantError
			switch {
			case errors.As(err, &bad):
				wantStatus, wantMsg = http.StatusBadRequest, bad.Msg
			case errors.As(err, &tenant):
				wantStatus, wantMsg = http.StatusNotFound, err.Error()
			default:
				t.Fatalf("%q: reference engine: %v", body, err)
			}
		}
		if w.Code != wantStatus {
			t.Errorf("%q: status %d (%s), want %d", body, w.Code, w.Body.String(), wantStatus)
			continue
		}
		if wantStatus != http.StatusOK {
			var got ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || got.Error.Message != wantMsg {
				t.Errorf("%q: error body %s, want message %q", body, w.Body.String(), wantMsg)
			}
			continue
		}
		var got engine.Response
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		got.LatencyMS, got.RequestID, want.LatencyMS, want.RequestID = 0, "", 0, ""
		if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
			t.Errorf("%q: response %s, want %s", body, g, w)
		}
	}

	// The envelope route shares the object parser and the fallback.
	one := string(mustJSON(t, validRequest()))
	for _, body := range []string{
		`{"requests":[` + one + `,` + one + `]}`,
		`{"REQUESTS":[` + one + `]}`,
		`{"requests":[` + strings.Replace(one, `"id":7`, `"Id":7`, 1) + `]}`,
		`{"requests":null}`,
		`{"requests":[` + one + `]} trailing`,
		`{"requests":[` + one + `,]}`,
	} {
		w := postBatch(t, h, []byte(body))
		var breq engine.BatchRequest
		err := json.NewDecoder(strings.NewReader(body)).Decode(&breq)
		switch {
		case err != nil:
			var got ErrorBody
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &got) != nil ||
				got.Error.Message != "bad request: "+err.Error() {
				t.Errorf("batch %q: status %d body %s, want 400 %v", body, w.Code, w.Body.String(), err)
			}
		case len(breq.Requests) == 0:
			if w.Code != http.StatusBadRequest {
				t.Errorf("batch %q: status %d, want 400 for an empty envelope", body, w.Code)
			}
		default:
			var got engine.BatchResponse
			if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &got) != nil || len(got.Responses) != len(breq.Requests) {
				t.Errorf("batch %q: status %d body %s, want %d responses", body, w.Code, w.Body.String(), len(breq.Requests))
			}
		}
	}
}

// TestDecodeFallbackCounted: a body the schema decoder declines — here an
// escaped key, which encoding/json accepts — is still served, and counts on
// rapid_json_decode_fallback_total; a body it takes, or one whose read
// failed, does not.
func TestDecodeFallbackCounted(t *testing.T) {
	s := stubServer(t, Config{MaxBodyBytes: 1 << 10})
	h := s.Handler()
	valid := string(mustJSON(t, validRequest()))
	escaped := strings.Replace(valid, `"id":7`, `"\u0069d":7`, 1)
	for _, tc := range []struct {
		body   string
		batch  bool
		status int
		want   int64
	}{
		{valid, false, http.StatusOK, 0},
		{escaped, false, http.StatusOK, 1},
		{`{"requests":[` + escaped + `]}`, true, http.StatusOK, 2},
		{`{"requests":[` + valid + `]}`, true, http.StatusOK, 2},
		{`{"pad":"` + strings.Repeat("a", 2<<10) + `"}`, false, http.StatusRequestEntityTooLarge, 2},
	} {
		post := postRerank
		if tc.batch {
			post = postBatch
		}
		if w := post(t, h, []byte(tc.body)); w.Code != tc.status {
			t.Fatalf("%.60q…: status %d (%s), want %d", tc.body, w.Code, w.Body.String(), tc.status)
		}
		if got := s.jsonFallback.Value(); got != tc.want {
			t.Fatalf("%.60q…: fallback count %d, want %d", tc.body, got, tc.want)
		}
	}
	if text := getMetrics(t, h); !strings.Contains(text, "rapid_json_decode_fallback_total 2\n") {
		t.Errorf("exposition lacks the fallback count:\n%s", text)
	}
}

// TestOversizedBodyWithCompleteValue: encoding/json stops reading at the end
// of the first value, so a body whose request is complete inside the cap is
// served even if junk after it runs past the cap — and one whose value is
// not complete by then is a 413. Reading the whole body first must not
// change either answer.
func TestOversizedBodyWithCompleteValue(t *testing.T) {
	s := stubServer(t, Config{MaxBodyBytes: 1024})
	valid := string(mustJSON(t, validRequest()))
	if w := postRerank(t, s.Handler(), []byte(valid+strings.Repeat(" ", 2048))); w.Code != http.StatusOK {
		t.Fatalf("complete value, oversized tail: status %d (%s), want 200", w.Code, w.Body.String())
	}
	if w := postRerank(t, s.Handler(), []byte(strings.Repeat(" ", 2048)+valid)); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("value past the cap: status %d, want 413", w.Code)
	}
}

func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 900) // a 9 KB body
	// An honest Content-Length: one allocation, never regrown.
	got, err := ReadBody(iotest.OneByteReader(bytes.NewReader(payload)), int64(len(payload)), nil)
	if err != nil || !bytes.Equal(got, payload) || cap(got) != len(payload)+1 {
		t.Fatalf("honest length: err %v, %d bytes, cap %d", err, len(got), cap(got))
	}
	// The storage handed in is reused when it is large enough.
	again, err := ReadBody(bytes.NewReader(payload[:100]), 100, got)
	if err != nil || !bytes.Equal(again, payload[:100]) || &again[0] != &got[0] {
		t.Fatalf("reuse: err %v, %d bytes, reused %v", err, len(again), &again[0] == &got[0])
	}
	// Unknown, understated and absurd lengths still read everything; the
	// absurd one reserves no more than the presize cap.
	for _, n := range []int64{-1, 0, 10, 1 << 40} {
		got, err := ReadBody(bytes.NewReader(payload), n, nil)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("content length %d: err %v, %d bytes", n, err, len(got))
		}
		if n == 1<<40 && cap(got) > maxBodyPresize {
			t.Fatalf("a Content-Length of %d reserved %d bytes", n, cap(got))
		}
	}
	// A failed read returns what arrived and the error.
	boom := errors.New("boom")
	got, err = ReadBody(io.MultiReader(bytes.NewReader(payload[:10]), iotest.ErrReader(boom)), -1, nil)
	if err != boom || !bytes.Equal(got, payload[:10]) {
		t.Fatalf("failed read: err %v, %q", err, got)
	}
}
