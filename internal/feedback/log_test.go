package feedback

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testEvent(i int) *Event {
	return &Event{
		RequestID: "req-" + string(rune('a'+i%26)),
		User:      uint64(i * 7919),
		Version:   "v1",
		Arm:       i % 3,
		Lambda:    0.5,
		UnixMS:    int64(1000 + i),
		Items:     []int{i, i + 1, i + 2},
		Clicks:    []bool{i%2 == 0, false, false},
	}
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := l.Append(testEvent(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func replayAll(t *testing.T, dir string) ([]uint64, []Event, ReplayStats) {
	t.Helper()
	var seqs []uint64
	var evs []Event
	st, err := Replay(dir, 0, func(seq uint64, ev Event) error {
		seqs = append(seqs, seq)
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, evs, st
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, evs, st := replayAll(t, dir)
	if len(evs) != 10 || st.Events != 10 {
		t.Fatalf("replayed %d events, want 10 (stats %+v)", len(evs), st)
	}
	if st.Truncated || st.Corrupt != 0 {
		t.Fatalf("clean log replayed dirty: %+v", st)
	}
	for i, ev := range evs {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, seqs[i], i+1)
		}
		if !reflect.DeepEqual(&ev, testEvent(i)) {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, ev, testEvent(i))
		}
	}
}

func TestLogRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records; MaxSegments 3 bounds
	// retention to 3 committed + 1 active.
	l, err := Open(dir, Options{SegmentBytes: 256, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 60)
	st := l.stat()
	if st.Segments > 4 {
		t.Fatalf("retention cap leaked: %d segments live", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _, rst := replayAll(t, dir)
	if len(seqs) == 0 || seqs[len(seqs)-1] != 60 {
		t.Fatalf("newest record must survive retention, got tail %v", seqs)
	}
	// Retained sequences are dense: GC drops whole oldest segments only.
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("retained seqs not dense at %d: %v", i, seqs)
		}
	}
	if rst.NextSeq != 61 {
		t.Fatalf("NextSeq = %d, want 61", rst.NextSeq)
	}
	// The segment files are the log's only record.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match(segPrefix+"*"+segSuffix, e.Name()); !ok {
			t.Fatalf("log wrote %s beside its segments", e.Name())
		}
	}
}

// TestLogStatSurvivesReopen: the shape a reopened log reports from its
// directory equals the shape the writer tracked, and Records counts what
// Replay returns.
func TestLogStatSurvivesReopen(t *testing.T) {
	for _, n := range []int{0, 1, 7, 60} {
		dir := t.TempDir()
		opt := Options{SegmentBytes: 256, MaxSegments: 3}
		l, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, n)
		before := l.stat()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		after := l2.stat()
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if after != before {
			t.Fatalf("%d appends: stat after reopen %+v, before close %+v", n, after, before)
		}
		if _, evs, _ := replayAll(t, dir); after.Records != int64(len(evs)) {
			t.Fatalf("%d appends: stat counts %d records, replay returns %d", n, after.Records, len(evs))
		}
	}
}

func TestLogReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 25)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l2.Append(testEvent(25))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 26 {
		t.Fatalf("reopened log assigned seq %d, want 26", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _, _ := replayAll(t, dir)
	if len(seqs) != 26 {
		t.Fatalf("replayed %d events after reopen, want 26", len(seqs))
	}
}

// TestLogTornTailRecovery simulates kill -9 mid-write: the tail of the
// active segment holds a partial frame. Open must truncate it, replay must
// return everything before it, and the recovered log must accept appends
// that replay contiguously.
func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append half a frame to the active segment.
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	active := filepath.Join(dir, names[len(names)-1])
	frame, err := encodeRecord(6, testEvent(5))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A reader sees the torn tail as end-of-log.
	seqs, _, st := replayAll(t, dir)
	if len(seqs) != 5 || !st.Truncated {
		t.Fatalf("torn-tail replay: %d events, truncated=%v; want 5, true", len(seqs), st.Truncated)
	}

	// Reopen recovers: torn bytes truncated, appends continue at seq 6.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	seq, err := l2.Append(testEvent(5))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("post-recovery append got seq %d, want 6", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _, st = replayAll(t, dir)
	if len(seqs) != 6 || st.Truncated {
		t.Fatalf("post-recovery replay: %d events, truncated=%v; want 6, false", len(seqs), st.Truncated)
	}
}

// TestLogReplayByteIdenticalPrefix is the crash-consistency contract the
// smoke test asserts end to end: what a log replays before more writes is a
// strict prefix of what it replays after them.
func TestLogReplayByteIdenticalPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before, bevs, _ := replayAll(t, dir) // concurrent reader, writer still open
	appendN(t, l, 20, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	after, aevs, _ := replayAll(t, dir)
	if len(after) < len(before) {
		t.Fatalf("log shrank: %d then %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] || !reflect.DeepEqual(bevs[i], aevs[i]) {
			t.Fatalf("replay prefix diverged at %d", i)
		}
	}
}

// TestLogCorruptMidSegment flips bytes inside a committed (non-newest)
// segment: replay must skip the rest of that segment, count the corruption,
// and keep replaying later segments.
func TestLogCorruptMidSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("test needs >= 3 segments, got %d", len(names))
	}
	// Corrupt the middle of the first segment (past its first record).
	first := filepath.Join(dir, names[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	_, _, n, err := decodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	data[n+20] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seqs, _, st := replayAll(t, dir)
	if st.Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 30 {
		t.Fatalf("later segments must still replay; tail %v", seqs)
	}
	if seqs[0] != 1 {
		t.Fatalf("records before the corruption must replay; head %v", seqs)
	}
}

// TestLogOpenWithStaleIndex plants the index.json older builds kept beside
// the segments, with a wrong next_seq: Open must go by the segment files
// alone and leave the planted file as it found it.
func TestLogOpenWithStaleIndex(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, "index.json")
	stale := []byte(`{"next_seq": 7, "segments": []}` + "\n")
	if err := os.WriteFile(index, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open beside a stale index: %v", err)
	}
	if seq, err := l2.Append(testEvent(30)); err != nil || seq != 31 {
		t.Fatalf("append beside a stale index: seq %d err %v, want 31 nil", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(index); err != nil || !bytes.Equal(got, stale) {
		t.Fatalf("stale index rewritten: %q (%v)", got, err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	frame, err := encodeRecord(7, testEvent(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeRecord(frame[:len(frame)-1]); err != errTruncated {
		t.Fatalf("short frame: %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, _, _, err := decodeRecord(bad); err == nil {
		t.Fatal("flipped payload byte decoded cleanly")
	}
	seq, ev, n, err := decodeRecord(frame)
	if err != nil || seq != 7 || n != len(frame) {
		t.Fatalf("good frame: seq %d n %d err %v", seq, n, err)
	}
	if !reflect.DeepEqual(&ev, testEvent(1)) {
		t.Fatalf("decode mismatch: %+v", ev)
	}
}

// TestDecodeRecordRouteTag: Event.User is framed under the tag "route", the
// field's name when logs began, so a record written then replays with the
// same user and re-encodes to the same bytes.
func TestDecodeRecordRouteTag(t *testing.T) {
	payload := []byte(`{"rid":"r-1","route":42,"ver":"v1","arm":-1,"t":1,"items":[3,1,2]}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint64(frame, 9)
	crc := crc32.Update(crc32.Update(0, crcTable, frame[4:12]), crcTable, payload)
	frame = append(binary.LittleEndian.AppendUint32(frame, crc), payload...)
	seq, ev, _, err := decodeRecord(frame)
	if err != nil || seq != 9 || ev.User != 42 {
		t.Fatalf("seq %d user %d err %v, want 9 / 42", seq, ev.User, err)
	}
	if re, err := encodeRecord(seq, &ev); err != nil || !bytes.Equal(re, frame) {
		t.Fatalf("re-encoded as %q (%v), want the frame back", re, err)
	}
}

// Sync forces the active segment to disk, for tests asserting durability
// points.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.sinceSync = 0
	return l.f.Sync()
}
