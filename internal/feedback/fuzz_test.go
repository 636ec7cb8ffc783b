package feedback

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzFeedbackEvent drives arbitrary bytes through the log record decoder —
// the code path every replay (trainer, rapidfeed, crash recovery) runs over
// bytes that may have been torn or corrupted by a crash. The contract: never
// panic, never allocate unboundedly (the length prefix is capped before any
// allocation), classify every failure as exactly errTruncated or errCorrupt,
// and round-trip every record the encoder produced.
//
// Seed corpus: valid frames plus the known-tricky shapes (committed under
// testdata/fuzz/FuzzFeedbackEvent; CI runs a -fuzztime smoke on top).
func FuzzFeedbackEvent(f *testing.F) {
	valid, err := encodeRecord(1, &Event{
		RequestID: "r-1", User: 42, Version: "bandit-mmr@0.50", Arm: 0,
		Lambda: 0.5, UnixMS: 1700000000000, Items: []int{1, 2, 3}, Clicks: []bool{true},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                               // torn tail
	f.Add(append([]byte{}, valid[4:]...))                                     // header shifted
	f.Add([]byte{})                                                           // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // huge length prefix
	two := append(append([]byte{}, valid...), valid...)
	f.Add(two) // two concatenated frames: decode must consume exactly one

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, ev, n, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, errTruncated) && !errors.Is(err, errCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A decoded record must re-encode to the exact bytes it came from:
		// the frame is canonical, so replay offsets are stable.
		re, err := encodeRecord(seq, &ev)
		if err != nil {
			t.Fatalf("decoded event does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			// JSON field order is deterministic for a struct, so any
			// difference means the decoder accepted a non-canonical frame
			// (e.g. unknown fields or whitespace). That is allowed — JSON
			// payloads are not bit-canonical — but length and seq must agree.
			seq2, _, n2, err := decodeRecord(re)
			if err != nil || seq2 != seq || n2 != len(re) {
				t.Fatalf("re-encoded frame does not round-trip: %v", err)
			}
		}
	})
}
