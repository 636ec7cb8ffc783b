package binproto

import (
	"bytes"
	"context"
	"math"
	"net"
	"reflect"
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

// stubScorer echoes the initial scores; the frontend contract under test is
// framing and error mapping, not model quality.
type stubScorer struct{}

func (stubScorer) Name() string { return "stub" }
func (stubScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return inst.InitScores, nil
}

// startServer mounts a binproto.Server over a stub engine on loopback and
// returns a connected client.
func startServer(t *testing.T, cfg engine.Config) (*Server, *Client) {
	t.Helper()
	e := engine.NewStatic(stubScorer{}, engine.Manifest{Dataset: "test", Config: testConfig()}, cfg)
	e.Log = t.Logf
	return serveEngine(t, e)
}

// serveEngine mounts a binproto.Server over e on loopback and returns a
// connected client; both are shut down when the test ends.
func serveEngine(t *testing.T, e *engine.Engine) (*Server, *Client) {
	t.Helper()
	s := &Server{Eng: e, Log: t.Logf}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

// TestRequestCodecRoundTrip: encode→decode reproduces the request exactly,
// and re-encoding the decoded request reproduces the payload byte-for-byte —
// the encoding is canonical (there is exactly one wire form per request).
func TestRequestCodecRoundTrip(t *testing.T) {
	cases := map[string]*engine.Request{
		"full":     validRequest(),
		"tenant":   {Tenant: "acme", UserFeatures: []float64{1}, Items: []engine.Item{{ID: -3, InitScore: math.Inf(1)}}},
		"empty":    {},
		"nil-seqs": {UserFeatures: []float64{0.5}, Items: []engine.Item{{ID: 1 << 40, Features: []float64{math.NaN()}}}},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			wire := AppendRequest(nil, req)
			got, err := DecodeRequest(wire)
			if err != nil {
				t.Fatal(err)
			}
			rewire := AppendRequest(nil, got)
			if !bytes.Equal(wire, rewire) {
				t.Fatalf("re-encode differs: %x vs %x", wire, rewire)
			}
			// NaN-safe field comparison: compare through the canonical bytes
			// (done above) plus the shape that matters for scoring.
			if len(got.Items) != len(req.Items) || got.Tenant != req.Tenant {
				t.Fatalf("decoded %+v, want %+v", got, req)
			}
		})
	}
}

// TestResponseCodecRoundTrip: every response field survives, scores bitwise.
func TestResponseCodecRoundTrip(t *testing.T) {
	resp := engine.Response{
		Ranked:         []int{9, 7, 8},
		Scores:         []float64{0.3, math.Copysign(0, -1), 1.0 / 3.0},
		Degraded:       true,
		DegradedReason: "deadline",
		ModelVersion:   "v2",
		Canary:         true,
		LatencyMS:      12.5,
		RequestID:      "r-123",
		Error:          "item 2: bad cover",
	}
	wire := AppendResponse(nil, &resp)
	got, err := DecodeResponse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ranked, resp.Ranked) {
		t.Fatalf("ranked %v want %v", got.Ranked, resp.Ranked)
	}
	for i := range resp.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(resp.Scores[i]) {
			t.Fatalf("score[%d] bits %x want %x", i, math.Float64bits(got.Scores[i]), math.Float64bits(resp.Scores[i]))
		}
	}
	got.Scores, resp.Scores = nil, nil
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("decoded %+v, want %+v", got, resp)
	}
}

// TestErrorCodecRoundTrip: error frames carry code, message and retry hint.
func TestErrorCodecRoundTrip(t *testing.T) {
	wire := appendError(nil, CodeOverloaded, "busy", 3)
	e, err := decodeError(wire)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeOverloaded || e.Message != "busy" || e.RetryAfterS != 3 {
		t.Fatalf("decoded %+v", e)
	}
	if !e.Retryable() {
		t.Fatal("overloaded not retryable")
	}
	if (&RemoteError{Code: CodeBadInput}).Retryable() {
		t.Fatal("bad_input retryable")
	}
}

// TestDecodeTruncatedNeverPanics: every proper prefix of a valid payload
// must produce an error, never a panic or a silent partial decode.
func TestDecodeTruncatedNeverPanics(t *testing.T) {
	reqWire := AppendRequest(nil, validRequest())
	respWire := AppendResponse(nil, &engine.Response{Ranked: []int{1}, Scores: []float64{0.5}, RequestID: "x"})
	errWire := appendError(nil, codeInternal, "boom", 0)
	for n := 0; n < len(reqWire); n++ {
		if _, err := DecodeRequest(reqWire[:n]); err == nil {
			t.Fatalf("request prefix %d decoded", n)
		}
	}
	for n := 0; n < len(respWire); n++ {
		if _, err := DecodeResponse(respWire[:n]); err == nil {
			t.Fatalf("response prefix %d decoded", n)
		}
	}
	for n := 0; n < len(errWire); n++ {
		if _, err := decodeError(errWire[:n]); err == nil {
			t.Fatalf("error prefix %d decoded", n)
		}
	}
}

// TestDecodeTrailingBytesRejected: framing desync (extra bytes after a
// complete message) is a protocol error, not silently ignored.
func TestDecodeTrailingBytesRejected(t *testing.T) {
	wire := append(AppendRequest(nil, validRequest()), 0xFF)
	if _, err := DecodeRequest(wire); err == nil {
		t.Fatal("trailing bytes accepted on request")
	}
	wire = append(AppendResponse(nil, &engine.Response{}), 0x00)
	if _, err := DecodeResponse(wire); err == nil {
		t.Fatal("trailing bytes accepted on response")
	}
}

// TestDecodeHostileCounts: a frame claiming a giant element count backed by
// a tiny payload must fail before allocating for the claimed count.
func TestDecodeHostileCounts(t *testing.T) {
	// user_features claims 2^32-1 floats inside an 12-byte payload.
	hostile := appendU32(nil, 0)             // empty tenant
	hostile = appendU32(hostile, 0xFFFFFFFF) // features count
	hostile = append(hostile, 0, 0, 0, 0)    // 4 stray bytes
	if _, err := DecodeRequest(hostile); err == nil {
		t.Fatal("hostile count accepted")
	}
	// ranked claims 2^31 ids with no backing bytes.
	hostileResp := appendU32(nil, 1<<31)
	if _, err := DecodeResponse(hostileResp); err == nil {
		t.Fatal("hostile ranked count accepted")
	}
}

// TestFrameOversizedRejected: the reader refuses frames whose header claims
// more than MaxFrame before reading the body.
func TestFrameOversizedRejected(t *testing.T) {
	var hdr [headerSize]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0x7F // ~2 GiB claim
	hdr[4] = frameRerankRequest
	var scratch []byte
	if _, _, err := readFrame(bytes.NewReader(hdr[:]), &scratch); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestServerRerank: the happy path over a real TCP connection — scores come
// back bitwise equal to the stub's echo of the initial scores, and a second
// request reuses the connection.
func TestServerRerank(t *testing.T) {
	_, c := startServer(t, engine.Config{Budget: time.Second})
	for i := 0; i < 2; i++ {
		resp, err := c.Rerank(context.Background(), validRequest())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("degraded: %s", resp.DegradedReason)
		}
		want := []int{7, 8, 9} // init scores are already descending
		if !reflect.DeepEqual(resp.Ranked, want) {
			t.Fatalf("ranked %v want %v", resp.Ranked, want)
		}
		wantScores := []float64{0.9, 0.4, 0.2}
		for j := range wantScores {
			if math.Float64bits(resp.Scores[j]) != math.Float64bits(wantScores[j]) {
				t.Fatalf("score[%d] = %v want %v", j, resp.Scores[j], wantScores[j])
			}
		}
		if resp.RequestID == "" {
			t.Fatal("no request id")
		}
	}
}

// TestServerBadInputKeepsConnection: an engine-level validation failure
// answers an error frame and keeps the connection serving — only framing
// desync is fatal to the stream.
func TestServerBadInputKeepsConnection(t *testing.T) {
	_, c := startServer(t, engine.Config{Budget: time.Second})
	bad := validRequest()
	bad.UserFeatures = []float64{1} // wrong geometry
	_, err := c.Rerank(context.Background(), bad)
	re, ok := err.(*RemoteError)
	if !ok || re.Code != CodeBadInput {
		t.Fatalf("err %v, want bad_input RemoteError", err)
	}
	if re.Retryable() {
		t.Fatal("bad_input marked retryable")
	}
	if _, err := c.Rerank(context.Background(), validRequest()); err != nil {
		t.Fatalf("connection dead after bad input: %v", err)
	}
}

// TestServerRepeatedItemIDBadInput: a list naming one id twice answers a
// bad_input error frame that says which id.
func TestServerRepeatedItemIDBadInput(t *testing.T) {
	_, c := startServer(t, engine.Config{Budget: time.Second})
	req := validRequest()
	req.Items[1].ID = req.Items[0].ID
	resp, err := c.Rerank(context.Background(), req)
	re, ok := err.(*RemoteError)
	if !ok || re.Code != CodeBadInput || re.Message != "item 7 appears more than once" {
		t.Fatalf("answered %+v (error %v), want bad_input naming item 7", resp, err)
	}
}

// TestServerUnknownTenant: a tenant name with no TenantSource behind it maps
// to the unknown_tenant code, mirroring the HTTP 404.
func TestServerUnknownTenant(t *testing.T) {
	_, c := startServer(t, engine.Config{Budget: time.Second})
	req := validRequest()
	req.Tenant = "ghost"
	_, err := c.Rerank(context.Background(), req)
	re, ok := err.(*RemoteError)
	if !ok || re.Code != codeUnknownTenant {
		t.Fatalf("err %v, want unknown_tenant RemoteError", err)
	}
}

// TestServerDraining: a draining server answers one draining error frame and
// closes; the error is retryable with a backoff hint, matching HTTP's 503 +
// Retry-After.
func TestServerDraining(t *testing.T) {
	s, c := startServer(t, engine.Config{Budget: time.Second})
	// Dial returns once the kernel has queued the connection; an answered
	// request proves Serve has accepted and registered it. Flipping closed
	// any earlier lets Serve close the socket instead of answering draining.
	if _, err := c.Rerank(context.Background(), validRequest()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	_, err := c.Rerank(context.Background(), validRequest())
	re, ok := err.(*RemoteError)
	if !ok || re.Code != CodeDraining {
		t.Fatalf("err %v, want draining RemoteError", err)
	}
	if !re.Retryable() || re.RetryAfterS < 1 {
		t.Fatalf("draining not retryable with hint: %+v", re)
	}
}

// TestServerGarbageFrameCloses: a frame of the wrong type answers bad_input
// and closes the connection — after a desync nothing on the stream can be
// trusted.
func TestServerGarbageFrameCloses(t *testing.T) {
	_, c := startServer(t, engine.Config{Budget: time.Second})
	var wbuf []byte
	if err := writeFrame(c.conn, &wbuf, frameError, appendError(nil, "x", "y", 0)); err != nil {
		t.Fatal(err)
	}
	var rbuf []byte
	typ, payload, err := readFrame(c.br, &rbuf)
	if err != nil || typ != frameError {
		t.Fatalf("typ %d err %v, want error frame", typ, err)
	}
	re, err := decodeError(payload)
	if err != nil || re.Code != CodeBadInput {
		t.Fatalf("decoded %+v err %v, want bad_input", re, err)
	}
	if _, _, err := readFrame(c.br, &rbuf); err == nil {
		t.Fatal("connection still open after desync")
	}
}

// poolShapedRequest is a request with the benchmark pool's geometry: 13 user
// dims, 20 items × (8 features + 5 cover), 5 topics × 1–5 × 8 features. The
// wire form is eight bytes a float whatever its value, so zeros do.
func poolShapedRequest() *engine.Request { return topicsRequest(5) }

// topicsRequest is poolShapedRequest over m topics, topic j carrying
// 1 + j mod 5 sequence items.
func topicsRequest(m int) *engine.Request {
	req := &engine.Request{UserFeatures: make([]float64, 13)}
	for i := 0; i < 20; i++ {
		req.Items = append(req.Items, engine.Item{ID: 640 + i, Features: make([]float64, 8), Cover: make([]float64, m)})
	}
	for j := 0; j < m; j++ {
		seq := make([]engine.SeqItem, 1+j%5)
		for k := range seq {
			seq[k].Features = make([]float64, 8)
		}
		req.TopicSequences = append(req.TopicSequences, seq)
	}
	return req
}

// TestDecodeRequestAllocsFlatInTopics: every topic's sequence is cut from
// one slab, so the request decoder allocates the same count at 1 topic as at
// 23.
func TestDecodeRequestAllocsFlatInTopics(t *testing.T) {
	first := -1.0
	for m := 1; m <= 23; m++ {
		wire := AppendRequest(nil, topicsRequest(m))
		n := testing.AllocsPerRun(50, func() {
			if _, err := DecodeRequest(wire); err != nil {
				t.Fatal(err)
			}
		})
		if first < 0 {
			first = n
		}
		if n != first {
			t.Errorf("%d topics: %v allocations, %v at 1 topic", m, n, first)
		}
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	wire := AppendRequest(nil, poolShapedRequest())
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecAllocCeilings pins what the codec allocates per pool-shaped list:
// the decoders within one allocation of today's counts (request 5: request,
// float slab, items, sequence table and sequence slab; response 4: ranked,
// scores and two strings), the encoders nothing once their buffer has grown.
// These counts are part of the allocations per list the benchmark bounds to
// 6 % on bin_c1_unique; a codec change that adds two shows up here first.
func TestCodecAllocCeilings(t *testing.T) {
	req := poolShapedRequest()
	resp := &engine.Response{
		Ranked: make([]int, len(req.Items)), Scores: make([]float64, len(req.Items)),
		ModelVersion: "20260101T000000Z", LatencyMS: 0.25, RequestID: "r-0123456789abcdef",
	}
	reqWire := AppendRequest(nil, req)
	respWire := AppendResponse(nil, resp)
	buf := make([]byte, 0, len(reqWire)+len(respWire))
	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"DecodeRequest", 6, func() {
			if _, err := DecodeRequest(reqWire); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeResponse", 5, func() {
			if _, err := DecodeResponse(respWire); err != nil {
				t.Fatal(err)
			}
		}},
		{"AppendRequest", 0, func() { buf = AppendRequest(buf[:0], req) }},
		{"AppendResponse", 0, func() { buf = AppendResponse(buf[:0], resp) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n > tc.ceiling {
			t.Errorf("%s: %v allocations per pool-shaped list, ceiling %v", tc.name, n, tc.ceiling)
		}
	}
}

// TestRoundTripAllocCeiling bounds what one cold request costs across the
// binary frontend, client and server together: encode and frame, decode,
// the engine's resolve, admission, dispatch and a scoring pass for a new
// user (the real model, the state cache on), the response's encode, frame
// and decode. 29 allocations today: the engine's 21 and the codec's 8. It is
// the bin_c1_unique benchmark's request, whose allocs_per_list the benchmark
// bounds to 6 %; the ceiling only moves down.
func TestRoundTripAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	cfg := core.DefaultConfig(13, 8, 5, 1)
	e := engine.NewStatic(core.New(cfg), engine.Manifest{Dataset: "test", Config: cfg}, engine.Config{StateCacheBytes: 1 << 20})
	t.Cleanup(e.Close)
	_, c := serveEngine(t, e)
	req := poolShapedRequest()
	user := 0.0
	n := testing.AllocsPerRun(200, func() {
		user++
		req.UserFeatures[0] = user // a new user each call
		if resp, err := c.Rerank(context.Background(), req); err != nil || resp.Degraded {
			t.Fatalf("%+v, %v", resp, err)
		}
	})
	t.Logf("%v allocations per cold round trip", n)
	if n > 29 {
		t.Errorf("binary round trip: %v allocations per cold pool-shaped request, ceiling 29", n)
	}
}
