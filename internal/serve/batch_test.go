package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rerank"
)

// TestUnversionedRerankRouteGone: POST /rerank, for a year the deprecated
// alias of /v1/rerank, is no route at all.
func TestUnversionedRerankRouteGone(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/rerank", bytes.NewReader(mustJSON(t, validRequest())))
	w := httptest.NewRecorder()
	stubServer(t, Config{}).Handler().ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("POST /rerank: status %d, want 404", w.Code)
	}
}

// TestHandleRerankBatchEnvelope: a mixed envelope answers every item — valid
// items score exactly like the single endpoint, malformed items carry a
// per-item error without rejecting the envelope.
func TestHandleRerankBatchEnvelope(t *testing.T) {
	s := stubServer(t, Config{})
	h := s.Handler()

	single := postRerank(t, h, mustJSON(t, validRequest()))
	var want engine.Response
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}

	bad := validRequest()
	bad.UserFeatures = []float64{0.1} // wrong geometry
	env := engine.BatchRequest{Requests: []engine.Request{*validRequest(), *bad, *validRequest()}}

	w := postBatch(t, h, mustJSON(t, env))
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var resp engine.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != 3 {
		t.Fatalf("got %d responses for 3 requests", len(resp.Responses))
	}
	for _, i := range []int{0, 2} {
		got := resp.Responses[i]
		if got.Error != "" || got.Degraded {
			t.Fatalf("valid item %d: %+v", i, got)
		}
		if !reflect.DeepEqual(got.Ranked, want.Ranked) || !reflect.DeepEqual(got.Scores, want.Scores) {
			t.Fatalf("item %d diverges from single endpoint:\nbatch:  %v %v\nsingle: %v %v",
				i, got.Ranked, got.Scores, want.Ranked, want.Scores)
		}
		if got.ModelVersion != want.ModelVersion {
			t.Fatalf("item %d version %q, single %q", i, got.ModelVersion, want.ModelVersion)
		}
	}
	if resp.Responses[1].Error == "" {
		t.Fatal("malformed item did not carry a per-item error")
	}
	if len(resp.Responses[1].Ranked) != 0 {
		t.Fatalf("malformed item still ranked: %+v", resp.Responses[1])
	}
}

// TestBatchRepeatedItemIDPerItemError: an envelope item that names one id
// twice carries its own bad-input error; its batch-mates still score.
func TestBatchRepeatedItemIDPerItemError(t *testing.T) {
	repeated := validRequest()
	repeated.Items[0].ID = repeated.Items[2].ID
	env := engine.BatchRequest{Requests: []engine.Request{*validRequest(), *repeated}}
	w := postBatch(t, stubServer(t, Config{}).Handler(), mustJSON(t, env))
	var resp engine.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK || len(resp.Responses) != 2 {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	if ok := resp.Responses[0]; ok.Error != "" || len(ok.Ranked) != 3 {
		t.Fatalf("valid batch-mate: %+v", ok)
	}
	if got := resp.Responses[1]; got.Error != "item 9 appears more than once" || len(got.Ranked) != 0 {
		t.Fatalf("repeated-id item: %+v, want the error naming item 9 and no ranking", got)
	}
}

// TestHandleRerankBatchLimits: an empty envelope and one over
// MaxBatchRequests are both rejected whole with 400.
func TestHandleRerankBatchLimits(t *testing.T) {
	s := stubServer(t, Config{})
	h := s.Handler()

	if w := postBatch(t, h, []byte(`{"requests":[]}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("empty envelope status %d", w.Code)
	}
	big := engine.BatchRequest{Requests: make([]engine.Request, engine.MaxBatchRequests+1)}
	for i := range big.Requests {
		big.Requests[i] = *validRequest()
	}
	if w := postBatch(t, h, mustJSON(t, big)); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized envelope status %d", w.Code)
	}
}

// TestHandleRerankBatchPerItemDegraded: a fault that hits one item degrades
// only that item — its batch-mates still get real scores.
func TestHandleRerankBatchPerItemDegraded(t *testing.T) {
	s := stubServer(t, Config{})
	s.Faults = &engine.FaultHooks{Before: func(_ context.Context, inst *rerank.Instance) error {
		if inst.Items[0] == 17 {
			return fmt.Errorf("injected: item 17 feature store down")
		}
		return nil
	}}
	h := s.Handler()

	marked := validRequest()
	marked.Items[0].ID = 17
	env := engine.BatchRequest{Requests: []engine.Request{*validRequest(), *marked}}

	w := postBatch(t, h, mustJSON(t, env))
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var resp engine.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Responses[0].Degraded {
		t.Fatalf("healthy batch-mate degraded: %+v", resp.Responses[0])
	}
	got := resp.Responses[1]
	if !got.Degraded || got.DegradedReason != "error" {
		t.Fatalf("faulted item not degraded-by-error: %+v", got)
	}
	// Degradation contract per item: initial order, init scores.
	if got.Ranked[0] != 17 || got.Scores[0] != 0.9 {
		t.Fatalf("degraded item did not fall back to initial order: %+v", got)
	}
}

// TestAdaptBaselinesBatchBitwise: for every baseline reranker, the
// context-aware adapter's Score reproduces the legacy Scores path bitwise.
func TestAdaptBaselinesBatchBitwise(t *testing.T) {
	rerankers := []rerank.Reranker{
		baselines.NewMMR(),
		baselines.NewDPP(),
		baselines.NewSSD(),
		baselines.NewAdpMMR(),
		baselines.NewDESA(8, 11),
		baselines.NewDLCM(8, 12),
		baselines.NewPDGAN(8, 13),
		baselines.NewPRM(8, 14),
		baselines.NewSeq2Slate(8, 15),
		baselines.NewSetRank(8, 16),
		baselines.NewSRGA(8, 17),
	}
	short := validRequest()
	short.Items = short.Items[:2]
	var insts []*rerank.Instance
	for _, req := range []*engine.Request{validRequest(), short, validRequest()} {
		inst, err := engine.ToInstance(testConfig(), req)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}

	for _, r := range rerankers {
		t.Run(r.Name(), func(t *testing.T) {
			want := make([][]float64, len(insts))
			for i, inst := range insts {
				want[i] = r.Scores(inst)
			}
			sc := engine.Adapt(r)
			for i, inst := range insts {
				got, err := sc.Score(context.Background(), inst)
				if err != nil {
					t.Fatal(err)
				}
				assertBitwiseEq(t, fmt.Sprintf("Score(inst %d)", i), got, want[i])
			}
		})
	}
}

// TestBatchEnvelopeFaultAttribution: a fault on an EARLIER envelope item
// must not shift the scores of later items onto the wrong responses. This
// is the regression test for runBatch compacting the dispatched slice in
// place: the envelope handler keeps ranging over the same backing array, so
// the compaction both raced (visible under -race) and could misattribute
// one item's scores to another.
func TestBatchEnvelopeFaultAttribution(t *testing.T) {
	s := stubServer(t, Config{})
	s.Faults = &engine.FaultHooks{Before: func(_ context.Context, inst *rerank.Instance) error {
		if inst.Items[0] == 17 {
			return fmt.Errorf("injected: item 17 feature store down")
		}
		return nil
	}}
	h := s.Handler()

	// Item k carries init score 0.9+k on its lead item; the stub scorer
	// echoes init scores, so each response's top score names its request.
	marked := validRequest()
	marked.Items[0].ID = 17
	env := engine.BatchRequest{Requests: []engine.Request{*marked}}
	for k := 1; k < 4; k++ {
		req := validRequest()
		req.Items[0].InitScore = 0.9 + float64(k)
		env.Requests = append(env.Requests, *req)
	}

	w := postBatch(t, h, mustJSON(t, env))
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var resp engine.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Responses[0].Degraded {
		t.Fatalf("faulted lead item not degraded: %+v", resp.Responses[0])
	}
	for k := 1; k < 4; k++ {
		got := resp.Responses[k]
		if got.Degraded || got.Error != "" {
			t.Fatalf("item %d caught its batch-mate's fault: %+v", k, got)
		}
		if want := 0.9 + float64(k); got.Scores[0] != want {
			t.Fatalf("item %d got score %v, want %v — scores attributed to the wrong request", k, got.Scores[0], want)
		}
	}
}

// funcScorer's func field makes its dynamic type non-comparable: using it in
// a batchKey (map key or ==) would panic at runtime.
type funcScorer struct {
	fn func(*rerank.Instance) []float64
}

func (f funcScorer) Name() string { return "func-scorer" }
func (f funcScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return f.fn(inst), nil
}

// TestNonComparableScorerFallsBack: a scorer whose dynamic type does not
// support == must score one call per item instead of panicking where an
// envelope's items are grouped into same-pin runs (==).
func TestNonComparableScorerFallsBack(t *testing.T) {
	fs := funcScorer{fn: func(inst *rerank.Instance) []float64 { return inst.InitScores }}
	s := NewServer(fs, engine.Manifest{Dataset: "test", Config: testConfig()}, Config{MaxInFlight: 16})
	s.Log = t.Logf
	h := s.Handler()

	if w := postRerank(t, h, mustJSON(t, validRequest())); w.Code != http.StatusOK {
		t.Fatalf("single request with non-comparable scorer: status %d: %s", w.Code, w.Body.String())
	}
	env := engine.BatchRequest{Requests: []engine.Request{*validRequest(), *validRequest()}}
	w := postBatch(t, h, mustJSON(t, env))
	if w.Code != http.StatusOK {
		t.Fatalf("batch envelope with non-comparable scorer: status %d: %s", w.Code, w.Body.String())
	}
	var resp engine.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Responses {
		if item.Degraded || item.Error != "" {
			t.Fatalf("item %d did not score: %+v", i, item)
		}
	}
}

// TestBatchEnvelopeTerminalStatus: the envelope's responses_total status
// reflects its items — all-invalid counts bad_input, all-degraded counts
// degraded, and only an envelope with at least one scored item counts ok.
func TestBatchEnvelopeTerminalStatus(t *testing.T) {
	s := stubServer(t, Config{})
	h := s.Handler()
	ok := s.met.Responses.With("ok")
	badInput := s.met.Responses.With("bad_input")
	degraded := s.met.Responses.With("degraded")

	bad := validRequest()
	bad.UserFeatures = []float64{0.1} // wrong geometry
	if w := postBatch(t, h, mustJSON(t, engine.BatchRequest{Requests: []engine.Request{*bad, *bad}})); w.Code != http.StatusOK {
		t.Fatalf("all-invalid envelope status %d", w.Code)
	}
	if ok.Value() != 0 || badInput.Value() != 1 {
		t.Fatalf("all-invalid envelope counted ok=%d bad_input=%d, want 0/1", ok.Value(), badInput.Value())
	}

	s.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
		return fmt.Errorf("injected: everything is down")
	}}
	if w := postBatch(t, h, mustJSON(t, engine.BatchRequest{Requests: []engine.Request{*validRequest()}})); w.Code != http.StatusOK {
		t.Fatalf("all-degraded envelope status %d", w.Code)
	}
	if ok.Value() != 0 || degraded.Value() != 1 {
		t.Fatalf("all-degraded envelope counted ok=%d degraded=%d, want 0/1", ok.Value(), degraded.Value())
	}

	s.Faults = nil
	if w := postBatch(t, h, mustJSON(t, engine.BatchRequest{Requests: []engine.Request{*validRequest(), *bad}})); w.Code != http.StatusOK {
		t.Fatalf("mixed envelope status %d", w.Code)
	}
	if ok.Value() != 1 {
		t.Fatalf("mixed envelope with a scored item counted ok=%d, want 1", ok.Value())
	}
}

// blockScorer parks in Score until its context ends; the chan field keeps
// the type comparable and signals the test that scoring has begun.
type blockScorer struct{ started chan struct{} }

func (b blockScorer) Name() string { return "block" }
func (b blockScorer) Score(ctx context.Context, _ *rerank.Instance) ([]float64, error) {
	b.started <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestClientCancelCountsCanceled: a client that disconnects mid-scoring is
// counted as canceled (matching the admission path), not as a deadline
// degradation, and no response body is serialized for it.
func TestClientCancelCountsCanceled(t *testing.T) {
	bs := blockScorer{started: make(chan struct{}, 1)}
	s := NewServer(bs, engine.Manifest{Dataset: "test", Config: testConfig()}, Config{Budget: 5 * time.Second})
	s.Log = t.Logf
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-bs.started
		cancel()
	}()
	req := httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(mustJSON(t, validRequest()))).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)

	if got := s.met.Responses.With("canceled").Value(); got != 1 {
		t.Fatalf("responses{canceled} = %d, want 1", got)
	}
	if got := obs.Total(s.met.Degraded); got != 0 {
		t.Fatalf("client cancel recorded %d degradations, want 0", got)
	}
	if w.Body.Len() != 0 {
		t.Fatalf("response body serialized for a departed client: %s", w.Body.String())
	}
}

func assertBitwiseEq(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: score %d = %v, legacy %v (not bitwise identical)", label, i, got[i], want[i])
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postBatch(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/rerank:batch", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}
