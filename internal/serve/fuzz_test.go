package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
)

// FuzzRerankRequest drives arbitrary bytes through the full /rerank wire
// path — JSON decode, ToInstance geometry validation, admission, scoring,
// encode. The contract under fuzz: the handler never panics (a panic would
// surface as a 500 from the recovery middleware) and malformed input is
// always a 4xx, never a 5xx and never an OK with a broken instance.
//
// Seed corpus: a valid request plus the known-tricky shapes (committed under
// testdata/fuzz/FuzzRerankRequest; CI runs a -fuzztime smoke on top).
func FuzzRerankRequest(f *testing.F) {
	valid, err := json.Marshal(validRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{"))
	f.Add([]byte(`{"user_features":"nope"}`))
	f.Add([]byte(`{"user_features":[0.1,0.2,0.3],"items":[],"topic_sequences":[[],[]]}`))
	f.Add([]byte(`{"user_features":[1e308,-1e308,0],"items":[{"id":-1,"features":[null,2],"cover":[1,0]}],"topic_sequences":[[],[]]}`))
	f.Add([]byte(`{"topic_sequences":[[{"features":[]}]]}`))

	s := NewServer(stubScorer{}, engine.Manifest{Dataset: "fuzz", Config: testConfig()}, Config{
		Budget:    time.Second,
		QueueWait: time.Second,
	})
	s.Log = func(string, ...any) {}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK:
			// An accepted request must round-trip to a complete response.
			var resp engine.Response
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", w.Body.String(), err)
			}
			if len(resp.Ranked) == 0 || len(resp.Ranked) != len(resp.Scores) {
				t.Fatalf("200 with malformed ranking: %+v", resp)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			// Rejected cleanly, in the error envelope.
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
				t.Fatalf("status %d outside the error envelope: %q (%v)", w.Code, w.Body.String(), err)
			}
		default:
			t.Fatalf("status %d on input %q: %s", w.Code, body, w.Body.String())
		}
	})
}

// FuzzManifest drives arbitrary bytes through the manifest parsing stage a
// server runs at startup (decodeManifest = JSON decode + ValidateConfig).
// The contract: never panic, and any manifest that parses must carry a
// geometry the serving tier can actually build — positive and capped
// dimensions, known enum values — because LoadModel constructs the model
// from it unconditionally.
func FuzzManifest(f *testing.F) {
	valid, err := json.Marshal(engine.Manifest{Dataset: "taobao", Lambda: 0.9, Config: testConfig()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("{"))
	f.Add([]byte(`{"config":{"UserDim":-1}}`))
	f.Add([]byte(`{"config":{"UserDim":3,"ItemDim":2,"Topics":1000000,"Hidden":4,"D":3}}`))
	f.Add([]byte(`{"dataset":"x","config":{"UserDim":1e9}}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := engine.DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking or accepting garbage is not
		}
		cfg := man.Config
		for _, d := range []int{cfg.UserDim, cfg.ItemDim, cfg.Topics, cfg.Hidden, cfg.D} {
			if d <= 0 || d > engine.MaxDim {
				t.Fatalf("accepted manifest with out-of-range dimension %d: %+v", d, cfg)
			}
		}
		if err := engine.ValidateConfig(cfg); err != nil {
			t.Fatalf("decodeManifest accepted a config engine.ValidateConfig rejects: %v", err)
		}
	})
}
