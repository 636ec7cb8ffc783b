package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rerank"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// stubScorer is a fast deterministic Scorer for wire-level tests that do not
// care about model quality: it echoes the initial scores.
type stubScorer struct{}

func (stubScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return inst.InitScores, nil
}
func (stubScorer) Name() string { return "stub" }

func stubServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(stubScorer{}, engine.Manifest{Dataset: "test", Config: testConfig()}, cfg)
	s.Log = t.Logf
	return s
}

func getMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	return w.Body.String()
}

// TestMetricsExposition drives one request down each terminal path and
// checks the /metrics exposition: the HELP/TYPE inventory is pinned by a
// golden file (renaming a metric must break loudly — dashboards and alerts
// key on these names), and the deterministic counter samples are asserted
// exactly.
func TestMetricsExposition(t *testing.T) {
	s := stubServer(t, Config{})
	h := s.Handler()
	body, _ := json.Marshal(validRequest())

	// Two ok, one malformed, one degraded-by-error.
	for i := 0; i < 2; i++ {
		if w := postRerank(t, h, body); w.Code != http.StatusOK {
			t.Fatalf("ok request status %d", w.Code)
		}
	}
	if w := postRerank(t, h, []byte("{")); w.Code != http.StatusBadRequest {
		t.Fatalf("bad request status %d", w.Code)
	}
	s.Faults = engine.FaultFunc(func(context.Context, *rerank.Instance) error {
		return errors.New("feature store down")
	})
	wantDegraded(t, postRerank(t, h, body), "error")
	s.Faults = nil

	// The scoring goroutine's deferred bookkeeping (latency observation,
	// in-flight decrement, slot release) can outlive the handler by a few
	// microseconds; wait for quiescence so the scrape below is exact.
	for deadline := time.Now().Add(2 * time.Second); ; {
		if s.met.Inflight.Value() == 0 && s.met.Scoring.Snapshot().Count == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scoring metrics did not quiesce: inflight=%v count=%d",
				s.met.Inflight.Value(), s.met.Scoring.Snapshot().Count)
		}
		time.Sleep(time.Millisecond)
	}

	text := getMetrics(t, h)

	// The metric-name inventory: every # HELP / # TYPE line, in exposition
	// order. Refresh intentionally with
	//
	//	go test ./internal/serve -run Exposition -update
	var header []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# ") {
			header = append(header, line)
		}
	}
	got := strings.Join(header, "\n") + "\n"
	path := filepath.Join("testdata", "metrics_names.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("metric inventory drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}

	// Deterministic samples: counters and histogram counts (bucket
	// distributions depend on wall-clock latency and are not pinned).
	for _, line := range []string{
		`rapid_http_requests_total 4`,
		`rapid_http_responses_total{status="bad_input"} 1`,
		`rapid_http_responses_total{status="degraded"} 1`,
		`rapid_http_responses_total{status="ok"} 2`,
		`rapid_degraded_total{reason="error"} 1`,
		`rapid_bad_input_total 1`,
		`rapid_json_decode_fallback_total 1`,
		`rapid_shed_total{reason="backpressure"} 0`,
		`rapid_shed_total{reason="draining"} 0`,
		`rapid_panics_recovered_total 0`,
		`rapid_inflight_scoring 0`,
		`rapid_request_latency_seconds_count 4`,
		`rapid_scoring_latency_seconds_count 3`,
		`rapid_queue_wait_seconds_count 3`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q\n%s", line, text)
		}
	}
}

// TestMetricsSharedRegistry: a caller-supplied registry receives the serve
// metrics (one process, one /metrics namespace).
func TestMetricsSharedRegistry(t *testing.T) {
	s := stubServer(t, Config{})
	if s.Registry() == nil {
		t.Fatal("default registry missing")
	}
	shared := s.Registry()
	s2 := NewServer(stubScorer{}, engine.Manifest{Dataset: "test", Config: testConfig()}, Config{Registry: shared})
	if s2.Registry() != shared {
		t.Fatal("Config.Registry not adopted")
	}
}

// TestPprofOptIn: /debug/pprof/ must 404 by default and serve only when
// Config.Pprof is set.
func TestPprofOptIn(t *testing.T) {
	probe := func(h http.Handler) int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
		return w.Code
	}
	if code := probe(stubServer(t, Config{}).Handler()); code != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", code)
	}
	if code := probe(stubServer(t, Config{Pprof: true}).Handler()); code != http.StatusOK {
		t.Fatalf("opt-in pprof status %d", code)
	}
}

// TestStatsSnapshotConcurrent is the regression test for the Stats audit:
// Stats() must be safe to call while requests are in flight (it now reads
// the same registry atomics the handlers write — no unsynchronized fields),
// every field must be monotone under observation, and the final totals must
// be exact. CI runs this package under -race.
func TestStatsSnapshotConcurrent(t *testing.T) {
	const (
		clients = 8
		perC    = 50
	)
	s := stubServer(t, Config{
		MaxInFlight: 64,
		QueueWait:   time.Second, // never shed: totals must be exact
		Budget:      time.Second,
	})
	s.Log = func(string, ...any) {}
	h := s.Handler()
	good, _ := json.Marshal(validRequest())

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var last engine.Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Requests < last.Requests || st.Responses < last.Responses ||
				st.BadInput < last.BadInput || st.Degraded < last.Degraded ||
				st.Shed < last.Shed || st.Panics < last.Panics {
				t.Errorf("stats went backwards: %+v -> %+v", last, st)
				return
			}
			last = st
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				if (c+i)%2 == 0 {
					postRerank(t, h, good)
				} else {
					postRerank(t, h, []byte("not json"))
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	total := int64(clients * perC)
	if st.Requests != total {
		t.Fatalf("requests = %d, want %d", st.Requests, total)
	}
	if st.Responses != total/2 || st.BadInput != total/2 {
		t.Fatalf("responses=%d bad_input=%d, want %d each", st.Responses, st.BadInput, total/2)
	}
	if st.Responses+st.BadInput+st.Degraded+st.Shed != st.Requests {
		t.Fatalf("outcome counters do not partition requests: %+v", st)
	}
}
