package binproto

import (
	"bytes"
	"testing"

	"repro/internal/engine"
)

// FuzzBinaryFrame drives arbitrary bytes through all three payload decoders
// — the exact surface a hostile or corrupted fleet peer controls. The
// robustness contract: never panic, never allocate for counts the payload
// cannot back, and on success the encoding is canonical: re-encoding the
// decoded message reproduces the input byte-for-byte (anything else means
// two wire forms decode to the same message, which breaks framing-desync
// detection). Seeds live in testdata/fuzz/FuzzBinaryFrame; CI runs a
// -fuzztime smoke on top.
func FuzzBinaryFrame(f *testing.F) {
	f.Add(AppendRequest(nil, &engine.Request{
		UserFeatures: []float64{0.1, 0.2, 0.3},
		Items: []engine.Item{
			{ID: 7, Features: []float64{0.5, 0.1}, Cover: []float64{1, 0}, InitScore: 0.9},
			{ID: 8, Features: []float64{0.2, 0.7}, Cover: []float64{0, 1}, InitScore: 0.4},
		},
		TopicSequences: [][]engine.SeqItem{{{Features: []float64{0.5, 0.2}}}, {}},
	}))
	f.Add(AppendRequest(nil, &engine.Request{Tenant: "acme"}))
	f.Add(AppendResponse(nil, &engine.Response{
		Ranked: []int{8, 7}, Scores: []float64{0.9, 0.4},
		ModelVersion: "v1", LatencyMS: 1.5, RequestID: "r-1",
	}))
	f.Add(appendError(nil, CodeOverloaded, "busy", 2))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, payload []byte) {
		if req, err := DecodeRequest(payload); err == nil {
			if re := AppendRequest(nil, req); !bytes.Equal(re, payload) {
				t.Fatalf("request encoding not canonical: %x decoded then re-encoded to %x", payload, re)
			}
		}
		if resp, err := DecodeResponse(payload); err == nil {
			if re := AppendResponse(nil, &resp); !bytes.Equal(re, payload) {
				t.Fatalf("response encoding not canonical: %x re-encoded to %x", payload, re)
			}
		}
		if e, err := decodeError(payload); err == nil {
			if re := appendError(nil, e.Code, e.Message, e.RetryAfterS); !bytes.Equal(re, payload) {
				t.Fatalf("error encoding not canonical: %x re-encoded to %x", payload, re)
			}
		}
	})
}
