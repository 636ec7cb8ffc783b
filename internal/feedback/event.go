// Package feedback closes the serving loop: a bounded, crash-safe,
// segmented append-only log of click/skip/impression events (Log), the
// ingestor that correlates POST /v1/feedback events to served rerank
// responses and feeds the bandit policy (Ingestor), the provider wrapper
// that puts the λ bandit on the request path (BanditProvider), and the
// re-estimate/republish driver (Trainer) that turns replayed logs into
// canaried online-learned versions through the registry lifecycle.
//
// Ownership: exactly one serving process appends to a log directory (the
// Log takes an exclusive advisory role by construction — the ingestor is
// the only writer goroutine); any number of readers replay concurrently,
// including from other processes (cmd/rapidfeed). Readers never see torn
// records: a record is visible only once its length-prefixed frame is fully
// on disk, and a partial tail frame — a crashed or in-flight write — reads
// as end-of-log, exactly like a truncated segment after kill -9.
package feedback

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/clickmodel"
)

// Event is one durable feedback record: the served impression (items in
// displayed order), the observed clicks, and the serving correlation the
// ingestor attached (user key, version label, bandit arm). The wire-level
// POST /v1/feedback event carries only {request_id, items, clicks}; the
// rest is joined server-side so clients cannot forge identity or attribution.
type Event struct {
	RequestID string `json:"rid"`
	// User is the served request's engine.UserKey; zero when the event
	// arrived uncorrelated (tracking entry evicted or unknown request id).
	// The tag is "route", the field's name when logs began, so every log
	// replays unchanged.
	User uint64 `json:"route,omitempty"`
	// Version is the model version label that served the impression.
	Version string `json:"ver,omitempty"`
	// Arm is the bandit arm index that served the impression, -1 otherwise.
	Arm int `json:"arm"`
	// Lambda is the arm's relevance/diversity λ when Arm >= 0.
	Lambda float64 `json:"lambda,omitempty"`
	// UnixMS is the ingestion timestamp.
	UnixMS int64  `json:"t"`
	Items  []int  `json:"items"`
	Clicks []bool `json:"clicks,omitempty"`
}

// clicked reports whether any position was clicked — the bandit reward.
func (e *Event) clicked() bool {
	for _, c := range e.Clicks {
		if c {
			return true
		}
	}
	return false
}

// session converts the event into a click-model session. The user id is
// folded from the user key, so every impression of one user is one user to
// the λ=1 DCM fit, whatever slate it showed.
func (e *Event) session() clickmodel.Session {
	return clickmodel.Session{
		User:   int(e.User % (1 << 31)),
		List:   e.Items,
		Clicks: e.Clicks,
	}
}

// Record framing: every event is stored as
//
//	u32 payloadLen | u64 seq | u32 crc32(seq||payload) | payload(JSON)
//
// Little-endian, IEEE CRC. The CRC covers the sequence number, so a frame
// whose header survived but whose body was torn by a crash fails loudly
// instead of replaying under the wrong position.
const (
	recordHeader = 4 + 8 + 4
	// maxRecordBytes caps one encoded event. Well above any valid event
	// (MaxListLength items with clicks is ~16 KiB of JSON); a larger length
	// prefix is corruption, not data, and is rejected before allocation.
	maxRecordBytes = 1 << 20
)

// Decode errors, distinguished because replay treats them differently: a
// truncated tail is the expected shape of a crash mid-write (stop cleanly),
// corruption mid-segment means lost records (stop the segment, count it).
var (
	errTruncated = errors.New("feedback: truncated record")
	errCorrupt   = errors.New("feedback: corrupt record")
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// encodeRecord frames one event. Encoding cannot fail for any Event value
// within MaxRecordBytes; oversized events error instead of writing a frame
// the decoder would reject.
func encodeRecord(seq uint64, ev *Event) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("feedback: encode event: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("feedback: event encodes to %d bytes, limit %d", len(payload), maxRecordBytes)
	}
	buf := make([]byte, recordHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	copy(buf[recordHeader:], payload)
	crc := crc32.Update(0, crcTable, buf[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	return buf, nil
}

// decodeRecord parses one framed record from the front of b, returning the
// bytes consumed. errTruncated means b ends inside the frame (valid prefix
// of a longer stream — or the torn tail of a crashed write); errCorrupt
// means the frame is complete but wrong (bad length, CRC mismatch, invalid
// JSON).
func decodeRecord(b []byte) (seq uint64, ev Event, n int, err error) {
	if len(b) < recordHeader {
		return 0, Event{}, 0, errTruncated
	}
	plen := int(binary.LittleEndian.Uint32(b[0:4]))
	if plen > maxRecordBytes {
		return 0, Event{}, 0, fmt.Errorf("%w: payload length %d exceeds %d", errCorrupt, plen, maxRecordBytes)
	}
	if len(b) < recordHeader+plen {
		return 0, Event{}, 0, errTruncated
	}
	seq = binary.LittleEndian.Uint64(b[4:12])
	want := binary.LittleEndian.Uint32(b[12:16])
	payload := b[recordHeader : recordHeader+plen]
	crc := crc32.Update(0, crcTable, b[4:12])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != want {
		return 0, Event{}, 0, fmt.Errorf("%w: crc mismatch at seq %d", errCorrupt, seq)
	}
	if err := json.Unmarshal(payload, &ev); err != nil {
		return 0, Event{}, 0, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return seq, ev, recordHeader + plen, nil
}
