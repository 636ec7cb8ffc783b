package feedback

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
)

// Options bounds a feedback log. The zero value of every field falls back
// to the listed default.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB): the active
	// segment rotates once it grows past this size.
	SegmentBytes int64
	// MaxSegments caps retained committed segments (default 64); beyond it
	// the oldest are deleted, bounding disk to ~MaxSegments·SegmentBytes.
	MaxSegments int

	// syncEvery overrides defaultSyncEvery when positive (tests raise it).
	syncEvery int
}

// defaultSyncEvery fsyncs the active segment after this many appends.
// Rotation and Close always fsync: a committed segment is durable. The
// window trades at most defaultSyncEvery events to a power loss — a process
// crash alone loses nothing the page cache has.
const defaultSyncEvery = 64

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 64
	}
	if o.syncEvery <= 0 {
		o.syncEvery = defaultSyncEvery
	}
	return o
}

// Segment files are named by the sequence number of their first record.
// The directory's segment files are the log's only record: there is no
// manifest beside them to keep in step.
const (
	segPrefix = "seg-"
	segSuffix = ".flog"
)

// segment is one committed (rotated, fsynced) segment file.
type segment struct {
	name  string
	bytes int64
}

// Log is the bounded, crash-safe, segmented append-only event log. One
// writer (the ingest goroutine) appends under a mutex; readers replay the
// directory concurrently and see a committed prefix. Sequence numbers start
// at 1 and are dense within what is retained.
type Log struct {
	dir string
	opt Options

	mu          sync.Mutex
	f           *os.File
	activeName  string
	activeBytes int64
	nextSeq     uint64
	sinceSync   int
	committed   []segment // oldest first
	closed      bool
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%012d%s", segPrefix, firstSeq, segSuffix)
}

// Open opens (or creates) the log in dir from its segment files alone: the
// older ones are committed and only stat'ed, and the newest is scanned
// record by record and truncated at the first torn or corrupt frame, so a
// kill -9 mid-write costs at most the partial record — everything before it
// replays byte-identically after restart.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: create log dir: %w", err)
	}
	l := &Log{dir: dir, opt: opt, nextSeq: 1}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		err = l.openSegment(l.nextSeq)
	} else {
		for _, name := range names[:len(names)-1] {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("feedback: stat %s: %w", name, err)
			}
			l.committed = append(l.committed, segment{name: name, bytes: fi.Size()})
		}
		err = l.recoverActive(names[len(names)-1])
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// segmentNames lists the segment files, oldest first (zero-padded first-seq
// names sort lexicographically).
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: scan log dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

func firstSeqOf(name string) uint64 {
	var seq uint64
	_, _ = fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &seq)
	return seq
}

// recoverActive scans the newest segment, truncates a torn tail, and opens
// it for append.
func (l *Log) recoverActive(name string) error {
	path := filepath.Join(l.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("feedback: recover %s: %w", name, err)
	}
	l.activeName = name
	l.nextSeq = firstSeqOf(name) // an empty active segment was created at its first seq
	good := 0
	rest := data
	for len(rest) > 0 {
		seq, _, n, err := decodeRecord(rest)
		if err != nil {
			break // torn or corrupt tail: everything after is discarded
		}
		good += n
		l.nextSeq = seq + 1
		rest = rest[n:]
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: open active segment: %w", err)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return fmt.Errorf("feedback: truncate torn tail of %s: %w", name, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.activeBytes = int64(good)
	return nil
}

// openSegment creates a fresh active segment starting at firstSeq and makes
// its existence durable (directory fsync).
func (l *Log) openSegment(firstSeq uint64) error {
	name := segName(firstSeq)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: create segment: %w", err)
	}
	if err := durable.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.activeName = name
	l.activeBytes = 0
	l.sinceSync = 0
	return nil
}

// Append frames and writes one event, stamping it with the next sequence
// number (returned). Rotation and the defaultSyncEvery fsync cadence happen here.
func (l *Log) Append(ev *Event) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("feedback: log closed")
	}
	seq := l.nextSeq
	frame, err := encodeRecord(seq, ev)
	if err != nil {
		return 0, err
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("feedback: append: %w", err)
	}
	l.nextSeq++
	l.activeBytes += int64(len(frame))
	l.sinceSync++
	if l.sinceSync >= l.opt.syncEvery {
		if err := l.f.Sync(); err != nil {
			return 0, err
		}
		l.sinceSync = 0
	}
	if l.activeBytes >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// rotateLocked commits the active segment: fsync, close, record it in the
// committed list, enforce the retention cap, open a fresh segment.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.committed = append(l.committed, segment{name: l.activeName, bytes: l.activeBytes})
	for len(l.committed) > l.opt.MaxSegments {
		old := l.committed[0]
		l.committed = l.committed[1:]
		if err := os.Remove(filepath.Join(l.dir, old.name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("feedback: drop segment %s: %w", old.name, err)
		}
	}
	return l.openSegment(l.nextSeq)
}

// Close fsyncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		return err
	}
	return l.f.Close()
}

// stats is a point-in-time view of the log's shape.
type stats struct {
	Segments int    // committed + active
	Bytes    int64  // total retained bytes
	Records  int64  // total retained records
	NextSeq  uint64 // sequence number the next append will get
}

// stat reports the log's current shape. Bytes are the segment file sizes;
// Records follow from the dense sequence numbers: every seq from the oldest
// retained segment's first up to nextSeq is retained.
func (l *Log) stat() stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.activeName
	if len(l.committed) > 0 {
		oldest = l.committed[0].name
	}
	st := stats{
		Segments: len(l.committed) + 1,
		Bytes:    l.activeBytes,
		Records:  int64(l.nextSeq - firstSeqOf(oldest)),
		NextSeq:  l.nextSeq,
	}
	for _, s := range l.committed {
		st.Bytes += s.bytes
	}
	return st
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	Events  int64
	Corrupt int64 // records lost to mid-segment corruption
	// Truncated reports a torn tail on the newest segment — the expected
	// shape after a crash (or while a writer is appending), not an error.
	Truncated bool
	NextSeq   uint64 // 1 + the last sequence number seen
}

// Replay streams every retained event with seq >= fromSeq, oldest first,
// through fn. It reads the directory directly, so it works from any process
// — including concurrently with a live writer, in which case it observes a
// committed prefix (a partially written tail record reads as truncated,
// exactly like a crash). Corruption inside a non-newest segment skips the
// rest of that segment and is counted, never silently absorbed.
func Replay(dir string, fromSeq uint64, fn func(seq uint64, ev Event) error) (ReplayStats, error) {
	var st ReplayStats
	st.NextSeq = 1
	names, err := segmentNames(dir)
	if err != nil {
		return st, err
	}
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return st, fmt.Errorf("feedback: replay %s: %w", name, err)
		}
		last := i == len(names)-1
		for len(data) > 0 {
			seq, ev, n, derr := decodeRecord(data)
			if derr != nil {
				if last {
					st.Truncated = true
				} else {
					st.Corrupt++
				}
				break
			}
			data = data[n:]
			if seq+1 > st.NextSeq {
				st.NextSeq = seq + 1
			}
			if seq < fromSeq {
				continue
			}
			if err := fn(seq, ev); err != nil {
				return st, err
			}
			st.Events++
		}
	}
	return st, nil
}

// nowMS is the event timestamp source, a hook for tests.
var nowMS = func() int64 { return time.Now().UnixMilli() }
