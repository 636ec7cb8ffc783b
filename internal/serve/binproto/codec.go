// Package binproto is the fleet-internal binary frontend for the RAPID
// scoring engine: the same engine.Engine the HTTP frontend serves, behind a
// length-prefixed binary protocol over TCP. It exists for hops where both
// ends are this codebase and JSON's encode/decode cost — float formatting,
// reflection, per-field allocations — is pure overhead inside a ~50 ms
// budget. Its clients today are the load generator (cmd/rapidload) and the
// repository benchmark (bench/); the router still reaches its replicas over
// HTTP, and moving that hop onto this protocol is ROADMAP item 2.
//
// Scores cross the wire as raw IEEE-754 bits, so a response is bitwise
// identical to the same request served over HTTP (the JSON path round-trips
// float64s losslessly via strconv; the binary path never leaves binary).
// The parity suite in internal/serve asserts this.
//
// # Framing
//
// Every message is one frame:
//
//	u32 LE payload length | u8 frame type | payload
//
// Frame types: 1 = rerank request, 2 = rerank response, 3 = error. Payloads
// are packed little-endian: integers as fixed-width u32/u64, floats as
// Float64bits, strings and slices length-prefixed. A frame longer than
// maxFrame is a protocol error and closes the connection — the cap bounds
// what a hostile or corrupted peer can make the server allocate.
//
// Errors mirror the HTTP error envelope: a stable machine-readable code
// (same strings as the v1 JSON surface: bad_input, overloaded, draining,
// unknown_tenant, internal), a human message and a retry-after hint for the
// retryable codes.
package binproto

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/engine"
)

// Frame types.
const (
	frameRerankRequest  = 1
	frameRerankResponse = 2
	frameError          = 3
)

// maxFrame caps one frame's payload. It is sized to the HTTP frontend's
// default body cap (8 MiB): the binary encoding of any request the HTTP
// surface would admit fits comfortably.
const maxFrame = 8 << 20

// headerSize is the frame prefix: u32 payload length + u8 type.
const headerSize = 5

// Error codes carried in error frames, aligned with the v1 HTTP envelope.
const (
	CodeBadInput      = "bad_input"
	CodeOverloaded    = "overloaded"
	CodeDraining      = "draining"
	codeUnknownTenant = "unknown_tenant"
	codeInternal      = "internal"
)

// RemoteError is an error frame surfaced to the client caller. Retryable
// reports whether backing off RetryAfterS seconds and retrying can succeed
// (overloaded, draining); bad_input and unknown_tenant errors are permanent
// for the request that caused them.
type RemoteError struct {
	Code        string
	Message     string
	RetryAfterS int
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("binproto: remote error %s: %s", e.Code, e.Message)
}

// Retryable reports whether the same request may succeed after a backoff.
func (e *RemoteError) Retryable() bool {
	return e.Code == CodeOverloaded || e.Code == CodeDraining
}

// --- encoding ------------------------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendFloats(b []byte, fs []float64) []byte {
	b = appendU32(b, uint32(len(fs)))
	for _, f := range fs {
		b = appendF64(b, f)
	}
	return b
}

// AppendRequest encodes req as a rerank-request payload (no frame header).
func AppendRequest(b []byte, req *engine.Request) []byte {
	b = appendString(b, req.Tenant)
	b = appendFloats(b, req.UserFeatures)
	b = appendU32(b, uint32(len(req.Items)))
	for i := range req.Items {
		it := &req.Items[i]
		b = appendU64(b, uint64(int64(it.ID)))
		b = appendFloats(b, it.Features)
		b = appendFloats(b, it.Cover)
		b = appendF64(b, it.InitScore)
	}
	b = appendU32(b, uint32(len(req.TopicSequences)))
	for _, seq := range req.TopicSequences {
		b = appendU32(b, uint32(len(seq)))
		for i := range seq {
			b = appendFloats(b, seq[i].Features)
		}
	}
	return b
}

// AppendResponse encodes resp as a rerank-response payload (no frame
// header). Scores travel as raw Float64bits: the decoded response is
// bitwise identical to the encoded one.
func AppendResponse(b []byte, resp *engine.Response) []byte {
	b = appendU32(b, uint32(len(resp.Ranked)))
	for _, id := range resp.Ranked {
		b = appendU64(b, uint64(int64(id)))
	}
	b = appendFloats(b, resp.Scores)
	if resp.Degraded {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendString(b, resp.DegradedReason)
	b = appendString(b, resp.ModelVersion)
	if resp.Canary {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendF64(b, resp.LatencyMS)
	b = appendString(b, resp.RequestID)
	b = appendString(b, resp.Error)
	return b
}

// appendError encodes an error payload (no frame header).
func appendError(b []byte, code, msg string, retryAfterS int) []byte {
	b = appendString(b, code)
	b = appendString(b, msg)
	b = appendU32(b, uint32(retryAfterS))
	return b
}

// --- decoding ------------------------------------------------------------

// reader is a bounds-checked cursor over one frame payload. Every length
// prefix is validated against the bytes actually remaining before any
// allocation, so a hostile frame can claim giant counts without making the
// decoder allocate more than the frame it already paid for.
type reader struct {
	b   []byte
	off int
	err error
	// slab is where floats lands its results: DecodeRequest sizes it once
	// for every float the payload can hold, so a request's vectors share one
	// allocation — the storage shape the JSON decoder hands the engine.
	slab []float64
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("binproto: truncated frame at %s (offset %d of %d)", what, r.off, len(r.b))
	}
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// boolean accepts exactly 0 or 1 — any other byte means framing desync, and
// tolerating it would give one message multiple wire forms.
func (r *reader) boolean(what string) bool {
	switch r.u8(what) {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(what)
		return false
	}
}

func (r *reader) u8(what string) byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// count reads a length prefix for elements of elemSize bytes minimum and
// rejects counts the remaining payload cannot possibly hold.
func (r *reader) count(what string, elemSize int) int {
	n := int(r.u32(what))
	if r.err != nil {
		return 0
	}
	if n < 0 || elemSize > 0 && n > (len(r.b)-r.off)/elemSize {
		r.fail(what)
		return 0
	}
	return n
}

func (r *reader) str(what string) string {
	n := r.count(what, 1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) floats(what string) []float64 {
	n := r.count(what, 8)
	if r.err != nil || n == 0 {
		return nil
	}
	if cap(r.slab)-len(r.slab) < n {
		r.slab = make([]float64, 0, n)
	}
	start := len(r.slab)
	for i := 0; i < n; i++ {
		r.slab = append(r.slab, r.f64(what))
	}
	// Capacity-clamped: appending to one vector cannot reach the next.
	return r.slab[start:len(r.slab):len(r.slab)]
}

// seqItems counts the items of the n topic sequences ahead of the cursor, on
// a copy of the reader: the size of the slab DecodeRequest cuts them from. It
// reads the length prefixes the decode will and skips the floats, so the
// decode never cuts more than was counted; where the walk fails the decode
// fails too, and reports it.
func (r reader) seqItems(n int) int {
	total := 0
	for j := 0; j < n && r.err == nil; j++ {
		nSeq := r.count("sequence", 4)
		total += nSeq
		for k := 0; k < nSeq && r.err == nil; k++ {
			r.off += 8 * r.count("sequence features", 8)
		}
	}
	return total
}

// DecodeRequest decodes a rerank-request payload. Trailing bytes after a
// complete request are a protocol error — they mean framing desync.
func DecodeRequest(payload []byte) (*engine.Request, error) {
	// A float is eight payload bytes, so the payload's own length bounds the
	// slab: a hostile frame buys no more than it paid for.
	r := &reader{b: payload, slab: make([]float64, 0, len(payload)/8)}
	req := &engine.Request{}
	req.Tenant = r.str("tenant")
	req.UserFeatures = r.floats("user_features")
	nItems := r.count("items", 8)
	if r.err == nil && nItems > 0 {
		req.Items = make([]engine.Item, nItems)
		for i := range req.Items {
			it := &req.Items[i]
			it.ID = int(int64(r.u64("item id")))
			it.Features = r.floats("item features")
			it.Cover = r.floats("item cover")
			it.InitScore = r.f64("item init_score")
		}
	}
	nTopics := r.count("topic_sequences", 4)
	if r.err == nil && nTopics > 0 {
		req.TopicSequences = make([][]engine.SeqItem, nTopics)
		// Every topic's sequence is cut, capacity-clamped, from one slab.
		seqs := make([]engine.SeqItem, r.seqItems(nTopics))
		for j := range req.TopicSequences {
			nSeq := r.count("sequence", 4)
			if r.err != nil {
				break
			}
			if nSeq > 0 {
				seq := seqs[:nSeq:nSeq]
				seqs = seqs[nSeq:]
				for k := range seq {
					seq[k].Features = r.floats("sequence features")
				}
				req.TopicSequences[j] = seq
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("binproto: %d trailing bytes after request", len(payload)-r.off)
	}
	return req, nil
}

// DecodeResponse decodes a rerank-response payload.
func DecodeResponse(payload []byte) (engine.Response, error) {
	r := &reader{b: payload}
	var resp engine.Response
	nRanked := r.count("ranked", 8)
	if r.err == nil && nRanked > 0 {
		resp.Ranked = make([]int, nRanked)
		for i := range resp.Ranked {
			resp.Ranked[i] = int(int64(r.u64("ranked id")))
		}
	}
	resp.Scores = r.floats("scores")
	resp.Degraded = r.boolean("degraded")
	resp.DegradedReason = r.str("degraded_reason")
	resp.ModelVersion = r.str("model_version")
	resp.Canary = r.boolean("canary")
	resp.LatencyMS = r.f64("latency_ms")
	resp.RequestID = r.str("request_id")
	resp.Error = r.str("error")
	if r.err != nil {
		return engine.Response{}, r.err
	}
	if r.off != len(payload) {
		return engine.Response{}, fmt.Errorf("binproto: %d trailing bytes after response", len(payload)-r.off)
	}
	return resp, nil
}

// decodeError decodes an error payload into a *RemoteError.
func decodeError(payload []byte) (*RemoteError, error) {
	r := &reader{b: payload}
	e := &RemoteError{}
	e.Code = r.str("error code")
	e.Message = r.str("error message")
	e.RetryAfterS = int(r.u32("retry_after_s"))
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("binproto: %d trailing bytes after error", len(payload)-r.off)
	}
	return e, nil
}
