package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rerank"
	"repro/internal/serve/binproto"
)

// parityHarness mounts both frontends over ONE server (one engine, one
// model, one metric set) and returns a way to drive the same request through
// each: the HTTP path via the real handler chain, the binary path via a real
// TCP connection through binproto.
type parityHarness struct {
	s   *Server
	h   http.Handler
	bin *binproto.Client
}

func newParityHarness(t *testing.T, cfg Config) *parityHarness {
	t.Helper()
	s := testServer(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := &binproto.Server{Eng: s.Engine, Log: t.Logf}
	go bs.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		bs.Shutdown(ctx)
	})
	c, err := binproto.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &parityHarness{s: s, h: s.Handler(), bin: c}
}

func (p *parityHarness) overHTTP(t *testing.T, req *engine.Request) (engine.Response, int) {
	t.Helper()
	w := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(mustJSON(t, req)))
	p.h.ServeHTTP(w, hr)
	var resp engine.Response
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode http response: %v (body %s)", err, w.Body.String())
		}
	}
	return resp, w.Code
}

// parityRequest builds a deterministic request at the test geometry with
// irrational-ish feature values — scores whose decimal text would lose bits
// under a sloppy JSON round trip, which is exactly what the bitwise
// comparison must rule out.
func parityRequest(seed int64) *engine.Request {
	rng := rand.New(rand.NewSource(seed))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	req := &engine.Request{
		UserFeatures:   vec(3),
		TopicSequences: [][]engine.SeqItem{{{Features: vec(2)}, {Features: vec(2)}}, {{Features: vec(2)}}},
	}
	for i := 0; i < 6; i++ {
		req.Items = append(req.Items, engine.Item{
			ID:        100*int(seed) + i,
			Features:  vec(2),
			Cover:     []float64{rng.Float64(), rng.Float64()},
			InitScore: rng.Float64(),
		})
	}
	return req
}

func assertParity(t *testing.T, label string, j, b engine.Response) {
	t.Helper()
	if j.Degraded != b.Degraded || j.DegradedReason != b.DegradedReason {
		t.Fatalf("%s: degradation differs: http %v/%q binary %v/%q",
			label, j.Degraded, j.DegradedReason, b.Degraded, b.DegradedReason)
	}
	if len(j.Ranked) != len(b.Ranked) || len(j.Scores) != len(b.Scores) {
		t.Fatalf("%s: shape differs: http %d/%d binary %d/%d",
			label, len(j.Ranked), len(j.Scores), len(b.Ranked), len(b.Scores))
	}
	for i := range j.Ranked {
		if j.Ranked[i] != b.Ranked[i] {
			t.Fatalf("%s: ranked[%d]: http %d binary %d", label, i, j.Ranked[i], b.Ranked[i])
		}
		if math.Float64bits(j.Scores[i]) != math.Float64bits(b.Scores[i]) {
			t.Fatalf("%s: scores[%d] not bitwise equal: http %x binary %x",
				label, i, math.Float64bits(j.Scores[i]), math.Float64bits(b.Scores[i]))
		}
	}
}

// TestCrossFrontendScoreParity is the frontend-neutrality acceptance test:
// the same request served over HTTP/JSON and over the binary protocol by the
// same engine returns bitwise-identical rankings and scores — the JSON
// round trip is lossless and the binary codec never re-quantizes.
func TestCrossFrontendScoreParity(t *testing.T) {
	p := newParityHarness(t, Config{Budget: 2 * time.Second})
	for seed := int64(1); seed <= 8; seed++ {
		req := parityRequest(seed)
		jresp, code := p.overHTTP(t, req)
		if code != http.StatusOK {
			t.Fatalf("seed %d: http status %d", seed, code)
		}
		bresp, err := p.bin.Rerank(context.Background(), req)
		if err != nil {
			t.Fatalf("seed %d: binary: %v", seed, err)
		}
		if jresp.Degraded || bresp.Degraded {
			t.Fatalf("seed %d: degraded response in a healthy harness", seed)
		}
		if jresp.ModelVersion != bresp.ModelVersion || jresp.Canary != bresp.Canary {
			t.Fatalf("seed %d: version/canary differ: %+v vs %+v", seed, jresp, bresp)
		}
		assertParity(t, "healthy", jresp, bresp)
	}
}

// TestBinaryRequestIDsJoinFeedback: request IDs minted for binary-frontend
// responses are first-class citizens of the feedback loop — /v1/feedback
// accepts them and the sink sees the same ID the wire carried.
func TestBinaryRequestIDsJoinFeedback(t *testing.T) {
	sink := &recordingSink{}
	p := newParityHarness(t, Config{Budget: 2 * time.Second, Feedback: sink})
	resp, err := p.bin.Rerank(context.Background(), parityRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID == "" {
		t.Fatal("binary response carries no request id")
	}
	ev := engine.FeedbackEvent{RequestID: resp.RequestID, Items: resp.Ranked[:2], Clicks: []bool{true, false}}
	w := postFeedback(t, p.h, mustJSON(t, ev))
	if w.Code != http.StatusAccepted {
		t.Fatalf("feedback for binary request id: status %d body %s", w.Code, w.Body.String())
	}
	if len(sink.submitted) != 1 || sink.submitted[0].RequestID != resp.RequestID {
		t.Fatalf("sink got %+v, want request id %q", sink.submitted, resp.RequestID)
	}
}

// TestCrossFrontendDegradationParity: under injected scoring faults both
// frontends degrade identically — same flag, same reason, same fallback
// ordering — because degradation lives in the engine, not the transport.
func TestCrossFrontendDegradationParity(t *testing.T) {
	p := newParityHarness(t, Config{Budget: 2 * time.Second})
	p.s.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
		return errors.New("injected scoring error")
	}}
	req := parityRequest(5)
	jresp, code := p.overHTTP(t, req)
	if code != http.StatusOK {
		t.Fatalf("degraded http status %d, want 200", code)
	}
	bresp, err := p.bin.Rerank(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !jresp.Degraded || !bresp.Degraded {
		t.Fatalf("faults not degrading: http %v binary %v", jresp.Degraded, bresp.Degraded)
	}
	assertParity(t, "degraded", jresp, bresp)

	// The fallback must be the exact initial-ranker ordering on both.
	inst, err := engine.ToInstance(testConfig(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantRank, wantScores := engine.FallbackOrder(inst)
	for i := range wantRank {
		if jresp.Ranked[i] != wantRank[i] {
			t.Fatalf("fallback rank[%d] = %d, want item %d", i, jresp.Ranked[i], wantRank[i])
		}
		if math.Float64bits(jresp.Scores[i]) != math.Float64bits(wantScores[i]) {
			t.Fatalf("fallback score[%d] differs from initial ranker", i)
		}
	}
}

// TestCrossFrontendShedParity: with zero admission capacity both frontends
// refuse with their protocol's overload shape carrying the same retry hint
// semantics (HTTP 429 + Retry-After, binary overloaded + RetryAfterS).
func TestCrossFrontendShedParity(t *testing.T) {
	p := newParityHarness(t, Config{Budget: 2 * time.Second, MaxInFlight: 1, QueueWait: time.Nanosecond})
	// Occupy the only scoring slot so both frontends must shed.
	release := make(chan struct{})
	blocked := make(chan struct{})
	p.s.Faults = &engine.FaultHooks{Before: func(ctx context.Context, _ *rerank.Instance) error {
		close(blocked)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}}
	holder := mustJSON(t, parityRequest(1))
	go func() { // holds the slot; outcome checked implicitly via <-blocked
		w := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(holder))
		p.h.ServeHTTP(w, hr)
	}()
	<-blocked
	defer close(release)

	_, code := p.overHTTP(t, parityRequest(2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("http shed status %d, want 429", code)
	}
	_, err := p.bin.Rerank(context.Background(), parityRequest(2))
	var re *binproto.RemoteError
	if !errors.As(err, &re) || re.Code != binproto.CodeOverloaded {
		t.Fatalf("binary shed error %v, want overloaded", err)
	}
	if !re.Retryable() || re.RetryAfterS < 1 {
		t.Fatalf("binary shed not retryable with hint: %+v", re)
	}
}

// tenantSource serves each named tenant from its own provider.
type tenantSource map[string]engine.Provider

func (s tenantSource) Tenant(name string) (engine.Provider, error) {
	if p, ok := s[name]; ok {
		return p, nil
	}
	return nil, errors.New("no such tenant")
}

// TestCrossFrontendTenantQuota: with serve.Config.TenantMaxInFlight 1 and the
// default tenant's one slot held, each frontend refuses that tenant with its
// overload shape — HTTP 429 with X-Shed-Reason tenant_quota and Retry-After,
// binary overloaded with a retry hint — and a /v1/rerank:batch item of that
// tenant carries its own error while its batch-mate of another tenant still
// answers.
func TestCrossFrontendTenantQuota(t *testing.T) {
	mc := testConfig()
	acme := engine.StaticProvider(engine.Pinned{Scorer: stubScorer{}, Manifest: engine.Manifest{Dataset: "test", Config: mc}})
	p := newParityHarness(t, Config{Budget: 2 * time.Second, TenantMaxInFlight: 1,
		Tenants: tenantSource{"acme": acme}})
	// The first scoring pass holds the default tenant's slot until released.
	release := make(chan struct{})
	blocked := make(chan struct{})
	var first atomic.Bool
	p.s.Faults = &engine.FaultHooks{Before: func(ctx context.Context, _ *rerank.Instance) error {
		if first.CompareAndSwap(false, true) {
			close(blocked)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return nil
	}}
	holder := make(chan int, 1)
	body := mustJSON(t, parityRequest(1))
	go func() {
		w := httptest.NewRecorder()
		p.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(body)))
		holder <- w.Code
	}()
	<-blocked
	defer func() {
		close(release)
		if code := <-holder; code != http.StatusOK {
			t.Errorf("slot holder: status %d, want 200", code)
		}
	}()

	w := httptest.NewRecorder()
	p.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/rerank", bytes.NewReader(mustJSON(t, parityRequest(2)))))
	if w.Code != http.StatusTooManyRequests || w.Header().Get(ShedReasonHeader) != "tenant_quota" || w.Header().Get("Retry-After") == "" {
		t.Fatalf("http: status %d, %s %q, Retry-After %q; want 429 tenant_quota with a retry hint",
			w.Code, ShedReasonHeader, w.Header().Get(ShedReasonHeader), w.Header().Get("Retry-After"))
	}
	_, err := p.bin.Rerank(context.Background(), parityRequest(2))
	var re *binproto.RemoteError
	if !errors.As(err, &re) || re.Code != binproto.CodeOverloaded || !re.Retryable() || re.RetryAfterS < 1 {
		t.Fatalf("binary: %v, want overloaded with a retry hint", err)
	}

	mate := *parityRequest(3)
	mate.Tenant = "acme"
	env := engine.BatchRequest{Requests: []engine.Request{*parityRequest(2), mate}}
	bw := postBatch(t, p.h, mustJSON(t, env))
	var resp engine.BatchResponse
	if err := json.Unmarshal(bw.Body.Bytes(), &resp); err != nil || bw.Code != http.StatusOK || len(resp.Responses) != 2 {
		t.Fatalf("batch status %d: %s", bw.Code, bw.Body.String())
	}
	if got := resp.Responses[0]; !strings.Contains(got.Error, "tenant_quota") || len(got.Ranked) != 0 {
		t.Fatalf("default tenant's item: %+v, want a tenant_quota error and no ranking", got)
	}
	if got := resp.Responses[1]; got.Error != "" || got.Degraded || len(got.Ranked) != len(mate.Items) {
		t.Fatalf("acme's batch-mate: %+v, want scored", got)
	}
}
