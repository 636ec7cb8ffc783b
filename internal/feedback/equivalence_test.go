package feedback

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clickmodel"
)

// logSessions appends n synthetic click sessions to the log and returns them
// in append order, so tests can compare replayed state against ground truth.
func logSessions(t *testing.T, l *Log, n int, seed int64) []clickmodel.Session {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]clickmodel.Session, 0, n)
	for i := 0; i < n; i++ {
		items := rng.Perm(6)[:4]
		clicks := make([]bool, 4)
		for k := range clicks {
			clicks[k] = rng.Float64() < 0.3
		}
		ev := &Event{
			RequestID: "r", User: uint64(rng.Intn(1000)), Arm: -1,
			UnixMS: int64(i), Items: items, Clicks: clicks,
		}
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev.session())
	}
	return out
}

func closeEnough(t *testing.T, got, want *clickmodel.Estimated, tol float64) {
	t.Helper()
	for v, w := range want.Alpha {
		if math.Abs(got.Alpha[v]-w) > tol {
			t.Fatalf("alpha[%d] = %.15f, batch %.15f", v, got.Alpha[v], w)
		}
	}
	for k := range want.Eps {
		if math.Abs(got.Eps[k]-want.Eps[k]) > tol {
			t.Fatalf("eps[%d] = %.15f, batch %.15f", k, got.Eps[k], want.Eps[k])
		}
	}
}

// TestReplayedIncrementalMatchesBatch closes the loop end to end on the
// persistence layer: sessions encoded into the segmented log, replayed, and
// streamed into the incremental estimator must fit the same parameters as the
// batch MLE over the original in-memory sessions.
func TestReplayedIncrementalMatchesBatch(t *testing.T) {
	const maxLen = 4
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	truth := logSessions(t, l, 2000, 7)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, st, err := ReplaySessions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(truth) || st.Corrupt != 0 || st.Truncated {
		t.Fatalf("replay lost sessions: %d of %d (stats %+v)", len(replayed), len(truth), st)
	}

	batch := clickmodel.Estimate(truth, 1.0, 2, nil, maxLen)
	inc := clickmodel.NewIncremental(maxLen)
	for _, s := range replayed {
		inc.Add(s)
	}
	closeEnough(t, inc.Estimate(2, nil), batch, 1e-9)
}

// TestReplayedIncrementalAfterTornTail: a crash mid-append leaves a torn
// frame. The incremental fit over the recovered replay must equal the batch
// MLE over exactly the durable prefix — the torn session is gone from both.
func TestReplayedIncrementalAfterTornTail(t *testing.T) {
	const maxLen = 4
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	truth := logSessions(t, l, 500, 13)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the active segment: half a frame of a would-be 501st event.
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := encodeRecord(501, &Event{RequestID: "torn", Arm: -1, Items: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, names[len(names)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	replayed, st, err := ReplaySessions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(truth) || !st.Truncated {
		t.Fatalf("torn-tail replay: %d sessions, truncated=%v; want %d, true", len(replayed), st.Truncated, len(truth))
	}

	batch := clickmodel.Estimate(truth, 1.0, 2, nil, maxLen)
	inc := clickmodel.NewIncremental(maxLen)
	for _, s := range replayed {
		inc.Add(s)
	}
	closeEnough(t, inc.Estimate(2, nil), batch, 1e-9)

	// Recovery discipline: reopening truncates the torn bytes, and appends
	// resume the sequence so the estimator's cursor semantics stay exact.
	l2, err := Open(dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l2.Append(&Event{RequestID: "next", Arm: -1, Items: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 501 {
		t.Fatalf("post-recovery seq = %d, want 501", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}
