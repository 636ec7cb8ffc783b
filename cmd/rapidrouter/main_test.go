package main

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/router"
)

// TestNewHTTPServerTimeouts: the edge listener bounds every phase of a
// connection, and its WriteTimeout outlasts the slowest answer the retry
// envelope can still produce — a client must never be cut off while the
// router is legitimately on its last attempt.
func TestNewHTTPServerTimeouts(t *testing.T) {
	for _, tc := range []struct {
		retries int
		attempt time.Duration
	}{
		{3, 5 * time.Second}, // the flag defaults
		{1, 50 * time.Millisecond},
		{8, 30 * time.Second},
	} {
		srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler(), tc.retries, tc.attempt)
		if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
			t.Fatalf("retries %d attempt %v: a zero timeout (header %v, read %v, write %v, idle %v)",
				tc.retries, tc.attempt, srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
		}
		// Every attempt times out and every retry sleeps the full cap; the
		// request body took all of ReadTimeout to arrive.
		worst := srv.ReadTimeout + time.Duration(tc.retries)*tc.attempt + time.Duration(tc.retries-1)*retryBackoffCap
		if srv.WriteTimeout <= worst {
			t.Errorf("retries %d attempt %v: WriteTimeout %v does not exceed the worst-case attempt sequence %v",
				tc.retries, tc.attempt, srv.WriteTimeout, worst)
		}
	}
}

func TestParseReplicas(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		want       []router.Replica
	}{
		{"id=url pairs", "a=http://h1:1,b=http://h2:2",
			[]router.Replica{{ID: "a", URL: "http://h1:1"}, {ID: "b", URL: "http://h2:2"}}},
		{"bare urls get positional ids", "http://h1:1,http://h2:2",
			[]router.Replica{{ID: "r0", URL: "http://h1:1"}, {ID: "r1", URL: "http://h2:2"}}},
		{"mixed, spaces trimmed", " a=http://h1:1 , http://h2:2 ",
			[]router.Replica{{ID: "a", URL: "http://h1:1"}, {ID: "r1", URL: "http://h2:2"}}},
		{"blanks skipped", "a=http://h1:1,, ,b=http://h2:2,",
			[]router.Replica{{ID: "a", URL: "http://h1:1"}, {ID: "b", URL: "http://h2:2"}}},
	} {
		got, err := parseReplicas(tc.spec)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parseReplicas(%q) = (%v, %v), want %v", tc.name, tc.spec, got, err, tc.want)
		}
	}
	for _, spec := range []string{"", "  \t"} {
		if got, err := parseReplicas(spec); err == nil {
			t.Errorf("parseReplicas(%q) = %v, want an error for an empty fleet", spec, got)
		}
	}
}
