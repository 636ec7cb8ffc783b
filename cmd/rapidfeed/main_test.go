package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/feedback"
)

// writeLog appends a short, varied click log — clicked at different depths,
// and unclicked — and returns its directory and the events in append order.
func writeLog(t *testing.T) (string, []feedback.Event) {
	t.Helper()
	dir := t.TempDir()
	l, err := feedback.Open(dir, feedback.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var events []feedback.Event
	for i := 0; i < 40; i++ {
		ev := feedback.Event{
			RequestID: fmt.Sprintf("r%d", i), User: uint64(i + 1), Version: "v1", Arm: -1,
			UnixMS: int64(i), Items: []int{i % 7, 7 + i%5, 12 + i%3, 15},
		}
		if i%4 != 3 { // every fourth session has no click
			ev.Clicks = make([]bool, 1+i%3)
			ev.Clicks[i%3] = true
		}
		if _, err := l.Append(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, events
}

// TestRunDump: one "seq<TAB>json" line per event, in append order — the
// format the feedback smoke's byte-identical-prefix check compares.
func TestRunDump(t *testing.T) {
	dir, events := writeLog(t)
	var out bytes.Buffer
	if err := runDump(dir, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("dumped %d lines for %d events", len(lines), len(events))
	}
	for i, line := range lines {
		want, err := json.Marshal(&events[i])
		if err != nil {
			t.Fatal(err)
		}
		if line != fmt.Sprintf("%d\t%s", i+1, want) {
			t.Fatalf("line %d = %q, want seq %d and %s", i, line, i+1, want)
		}
	}
	if err := runDump("", &out); err == nil {
		t.Error("-dump without -log accepted")
	}
}

// TestRunEstimateCheckBatch: on a replayed log the incremental fit equals the
// batch MLE to the fixed 1e-9, cross-checked the way the smoke does it.
func TestRunEstimateCheckBatch(t *testing.T) {
	dir, _ := writeLog(t)
	if err := runEstimate(dir, true); err != nil {
		t.Fatalf("incremental vs batch on a replayed log: %v", err)
	}
	if err := runEstimate("", true); err == nil {
		t.Error("-estimate without -log accepted")
	}
}
