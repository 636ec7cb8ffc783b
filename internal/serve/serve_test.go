package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rerank"
)

func testConfig() core.Config {
	return core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2,
		Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	mc := testConfig()
	s := NewServer(core.New(mc), engine.Manifest{Dataset: "test", Config: mc}, cfg)
	s.Log = t.Logf
	return s
}

func validRequest() *engine.Request {
	return &engine.Request{
		UserFeatures: []float64{0.1, 0.2, 0.3},
		Items: []engine.Item{
			{ID: 7, Features: []float64{0.5, 0.1}, Cover: []float64{1, 0}, InitScore: 0.9},
			{ID: 8, Features: []float64{0.2, 0.7}, Cover: []float64{0, 1}, InitScore: 0.4},
			{ID: 9, Features: []float64{0.3, 0.3}, Cover: []float64{1, 0}, InitScore: 0.2},
		},
		TopicSequences: [][]engine.SeqItem{
			{{Features: []float64{0.5, 0.2}}},
			{},
		},
	}
}

func postRerank(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHandleRerank(t *testing.T) {
	s := testServer(t, Config{})
	body, _ := json.Marshal(validRequest())
	w := postRerank(t, s.Handler(), body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp engine.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Ranked) != 3 || len(resp.Scores) != 3 {
		t.Fatalf("response %+v", resp)
	}
	if resp.Degraded {
		t.Fatalf("healthy request degraded: %+v", resp)
	}
	for i := 1; i < len(resp.Scores); i++ {
		if resp.Scores[i] > resp.Scores[i-1]+1e-12 {
			t.Fatalf("scores not sorted: %v", resp.Scores)
		}
	}
	seen := map[int]bool{}
	for _, id := range resp.Ranked {
		seen[id] = true
	}
	for _, id := range []int{7, 8, 9} {
		if !seen[id] {
			t.Fatalf("item %d missing from ranking", id)
		}
	}
	if st := s.Stats(); st.Responses != 1 || st.Requests != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHandleRerankBadInput is the wire-layer table: every malformed input
// must be rejected with a 4xx, never crash or hang.
func TestHandleRerankBadInput(t *testing.T) {
	s := testServer(t, Config{MaxBodyBytes: 2048})
	h := s.Handler()
	cases := []struct {
		name string
		body func() []byte
		want int
	}{
		{"malformed json", func() []byte { return []byte("{") }, http.StatusBadRequest},
		{"wrong type", func() []byte { return []byte(`{"user_features": "nope"}`) }, http.StatusBadRequest},
		{"empty body", func() []byte { return nil }, http.StatusBadRequest},
		{"empty items", func() []byte {
			r := validRequest()
			r.Items = nil
			b, _ := json.Marshal(r)
			return b
		}, http.StatusBadRequest},
		{"dimension mismatch", func() []byte {
			r := validRequest()
			r.UserFeatures = []float64{1, 2}
			b, _ := json.Marshal(r)
			return b
		}, http.StatusBadRequest},
		{"oversized body", func() []byte {
			return []byte(`{"user_features": [` + strings.Repeat("0.1,", 4096) + `0.1]}`)
		}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if w := postRerank(t, h, tc.body()); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
	if st := s.Stats(); st.BadInput != int64(len(cases)) {
		t.Fatalf("bad-input counter %d, want %d", st.BadInput, len(cases))
	}
}

// TestRepeatedItemIDBadInput: item ids name items, so a list naming one
// twice is a 400 bad_input that says which id — not an answer that scores
// both copies as the last one.
func TestRepeatedItemIDBadInput(t *testing.T) {
	s := testServer(t, Config{})
	req := validRequest()
	req.Items[2].ID = req.Items[1].ID
	w := postRerank(t, s.Handler(), mustJSON(t, req))
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || w.Code != http.StatusBadRequest ||
		eb.Error.Code != "bad_input" || eb.Error.Message != "item 8 appears more than once" {
		t.Fatalf("status %d, body %s: want 400 bad_input naming item 8", w.Code, w.Body.String())
	}
}

func wantDegraded(t *testing.T, w *httptest.ResponseRecorder, reason string) engine.Response {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp engine.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.DegradedReason != reason {
		t.Fatalf("want degraded %q, got %+v", reason, resp)
	}
	// The degradation contract: the initial-ranker ordering by init score.
	if len(resp.Ranked) != 3 || resp.Ranked[0] != 7 || resp.Ranked[1] != 8 || resp.Ranked[2] != 9 {
		t.Fatalf("degraded ranking %v is not the initial order", resp.Ranked)
	}
	if resp.Scores[0] != 0.9 || resp.Scores[1] != 0.4 || resp.Scores[2] != 0.2 {
		t.Fatalf("degraded scores %v are not the init scores", resp.Scores)
	}
	return resp
}

func TestDegradedOnScoringError(t *testing.T) {
	s := testServer(t, Config{})
	s.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
		return errors.New("feature store down")
	}}
	body, _ := json.Marshal(validRequest())
	wantDegraded(t, postRerank(t, s.Handler(), body), "error")
	if st := s.Stats(); st.Degraded != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDegradedOnScoringPanic(t *testing.T) {
	s := testServer(t, Config{})
	s.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
		panic("index out of range in model")
	}}
	body, _ := json.Marshal(validRequest())
	wantDegraded(t, postRerank(t, s.Handler(), body), "panic")
	if st := s.Stats(); st.Panics != 1 || st.Degraded != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDegradedOnDeadline(t *testing.T) {
	s := testServer(t, Config{Budget: 10 * time.Millisecond})
	s.Faults = &engine.FaultHooks{Before: func(ctx context.Context, _ *rerank.Instance) error {
		<-ctx.Done() // latency spike that outlives the budget
		return ctx.Err()
	}}
	body, _ := json.Marshal(validRequest())
	wantDegraded(t, postRerank(t, s.Handler(), body), "deadline")
}

// TestSheddingUnderLoad verifies the backpressure path: with one scoring
// slot occupied, a second request exhausts its queue wait and is shed with
// 429 + Retry-After.
func TestSheddingUnderLoad(t *testing.T) {
	s := testServer(t, Config{
		MaxInFlight: 1,
		QueueWait:   5 * time.Millisecond,
		Budget:      2 * time.Second,
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
		close(entered)
		<-release
		return nil
	}}
	h := s.Handler()
	body, _ := json.Marshal(validRequest())
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postRerank(t, h, body) }()
	<-entered // slot now held by the first request
	w := postRerank(t, h, body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("first request status %d", w.Code)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestRecoveryMiddleware: a panic outside the scoring goroutine (a handler
// bug) must surface as a 500 in the JSON error envelope, never kill the
// process.
func TestRecoveryMiddleware(t *testing.T) {
	s := testServer(t, Config{})
	h := s.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/anything", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", w.Body.String(), err)
	}
	if body.Error.Code != errCodeInternal {
		t.Fatalf("code %q, want %q", body.Error.Code, errCodeInternal)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestHealthAndReady(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["status"] != "ok" || m["model"] != "RAPID-pro" {
		t.Fatalf("health payload %v", m)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("readyz status %d", w.Code)
	}
	// A draining server reports unready but stays live.
	s.SetDraining(true)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("draining healthz status %d, want 200", w.Code)
	}
}

// TestReadyzBody pins the /readyz JSON contract a fleet router probes: the
// pinned model version and the draining flag ride the existing endpoint, and
// the bare 200/503 status-code contract is unchanged.
func TestReadyzBody(t *testing.T) {
	pin := engine.Pinned{Scorer: stubScorer{}, Manifest: engine.Manifest{Dataset: "test", Config: testConfig()}, Version: "v42"}
	s := NewProviderServer(engine.StaticProvider(pin), Config{})
	s.Log = t.Logf
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("readyz status %d", w.Code)
	}
	var st engine.ReadyStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Draining || st.ModelVersion != "v42" {
		t.Fatalf("ready body %+v", st)
	}

	s.SetDraining(true)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ready || !st.Draining || st.ModelVersion != "v42" {
		t.Fatalf("draining body %+v", st)
	}
}

// TestDrainingShedDistinguishable: a draining replica answers new scoring
// requests with 503 + X-Shed-Reason: draining (never a generic 429), so a
// router stops retrying a replica that is going away; backpressure sheds
// keep 429 and carry X-Shed-Reason: backpressure. The two land in separate
// rapid_shed_total series.
func TestDrainingShedDistinguishable(t *testing.T) {
	s := stubServer(t, Config{})
	h := s.Handler()
	body, _ := json.Marshal(validRequest())

	s.SetDraining(true)
	w := postRerank(t, h, body)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining rerank status %d, want 503 (%s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get(ShedReasonHeader); got != engine.ShedDraining {
		t.Fatalf("%s = %q, want %q", ShedReasonHeader, got, engine.ShedDraining)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("draining shed without Retry-After")
	}
	// The batch envelope route sheds identically.
	bb, _ := json.Marshal(engine.BatchRequest{Requests: []engine.Request{*validRequest()}})
	req := httptest.NewRequest(http.MethodPost, "/v1/rerank:batch", bytes.NewReader(bb))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get(ShedReasonHeader) != engine.ShedDraining {
		t.Fatalf("draining batch status %d reason %q", w.Code, w.Header().Get(ShedReasonHeader))
	}
	if got := s.met.ShedDrain.Value(); got != 2 {
		t.Fatalf("draining shed counter = %d, want 2", got)
	}
	if got := s.met.ShedBack.Value(); got != 0 {
		t.Fatalf("backpressure shed counter = %d, want 0", got)
	}
	if st := s.Stats(); st.Shed != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestAfterScoreHook exercises the post-scoring half of the chaos seam:
// errors, injected response latency past the budget, and panics must each
// degrade the response (never 5xx); a FaultHooks with only a Before half, or
// with neither, must leave the missing half a no-op.
func TestAfterScoreHook(t *testing.T) {
	body, _ := json.Marshal(validRequest())

	t.Run("error degrades", func(t *testing.T) {
		s := stubServer(t, Config{})
		s.Faults = &engine.FaultHooks{After: func(context.Context, *rerank.Instance, []float64) error {
			return errors.New("response path wedged")
		}}
		wantDegraded(t, postRerank(t, s.Handler(), body), "error")
	})
	t.Run("latency degrades on deadline", func(t *testing.T) {
		s := stubServer(t, Config{Budget: 10 * time.Millisecond})
		s.Faults = &engine.FaultHooks{After: func(ctx context.Context, _ *rerank.Instance, _ []float64) error {
			<-ctx.Done() // slow response that outlives the budget
			return ctx.Err()
		}}
		wantDegraded(t, postRerank(t, s.Handler(), body), "deadline")
	})
	t.Run("panic degrades", func(t *testing.T) {
		s := stubServer(t, Config{})
		s.Log = func(string, ...any) {}
		s.Faults = &engine.FaultHooks{After: func(context.Context, *rerank.Instance, []float64) error {
			panic("post-scoring bug")
		}}
		wantDegraded(t, postRerank(t, s.Handler(), body), "panic")
		if st := s.Stats(); st.Panics != 1 {
			t.Fatalf("stats %+v", st)
		}
	})
	t.Run("before-only hooks stay compatible", func(t *testing.T) {
		s := stubServer(t, Config{})
		s.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
			return errors.New("feature store down")
		}}
		wantDegraded(t, postRerank(t, s.Handler(), body), "error")
	})
	t.Run("nil hooks pass through", func(t *testing.T) {
		s := stubServer(t, Config{})
		s.Faults = &engine.FaultHooks{}
		w := postRerank(t, s.Handler(), body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp engine.Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("empty hooks degraded the response: %+v", resp)
		}
	})
}

func TestManifestPath(t *testing.T) {
	if got := engine.ManifestPath("model.gob"); got != "model.json" {
		t.Fatalf("ManifestPath = %s", got)
	}
	if got := engine.ManifestPath("weird"); got != "weird.json" {
		t.Fatalf("ManifestPath = %s", got)
	}
}
