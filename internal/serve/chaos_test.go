package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rerank"
)

// TestChaos hammers the full handler chain with 32 concurrent clients while
// the fault injector fires scoring panics, scoring errors and latency
// spikes beyond the budget. The robustness contract under fire:
//
//   - the process never dies (any injected panic escaping would fail the
//     test run itself);
//   - zero 5xx — scoring failures degrade, they do not error;
//   - every status is 200 or 429 (shed under overload);
//   - every degraded 200 carries the exact initial-ranker ordering.
func TestChaos(t *testing.T) {
	s := testServer(t, Config{
		Budget:      15 * time.Millisecond,
		MaxInFlight: 8,
		QueueWait:   2 * time.Millisecond,
	})
	s.Log = func(string, ...any) {} // recovered-panic logs would swamp the output
	var calls atomic.Int64
	s.Faults = &engine.FaultHooks{Before: func(ctx context.Context, _ *rerank.Instance) error {
		switch calls.Add(1) % 10 {
		case 0:
			panic("injected model bug")
		case 1:
			return errors.New("injected scoring error")
		case 2, 3:
			// Latency spike past the budget; bail out once abandoned so the
			// scoring slot frees promptly.
			spike := time.NewTimer(40 * time.Millisecond)
			defer spike.Stop()
			select {
			case <-spike.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		default:
			return nil
		}
	}}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(validRequest())

	const clients, perClient = 32, 15
	var (
		mu       sync.Mutex
		status   = map[int]int{}
		degraded int
		failures []string
	)
	record := func(f string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(f, args...))
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/rerank", "application/json", bytes.NewReader(body))
				if err != nil {
					record("transport error: %v", err)
					continue
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					record("read body: %v", err)
					continue
				}
				mu.Lock()
				status[resp.StatusCode]++
				mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					var rr engine.Response
					if err := json.Unmarshal(raw, &rr); err != nil {
						record("bad 200 body: %v", err)
						continue
					}
					if len(rr.Ranked) != 3 {
						record("200 with %d ranked items", len(rr.Ranked))
					}
					if rr.Degraded {
						if rr.Ranked[0] != 7 || rr.Ranked[1] != 8 || rr.Ranked[2] != 9 {
							record("degraded ranking %v is not the initial order", rr.Ranked)
						}
						mu.Lock()
						degraded++
						mu.Unlock()
					}
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						record("429 without Retry-After")
					}
				default:
					record("unexpected status %d: %s", resp.StatusCode, raw)
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	for code := range status {
		if code >= 500 {
			t.Errorf("saw %d responses with status %d", status[code], code)
		}
	}
	if degraded == 0 {
		t.Error("no degraded responses despite injected faults")
	}
	// The server must still be fully alive after the storm.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v %v", resp, err)
	}
	resp.Body.Close()
	st := s.Stats()
	t.Logf("chaos: status=%v degraded=%d stats=%+v", status, degraded, st)
	if st.Panics == 0 {
		t.Error("no panics recovered despite injection")
	}
}

// TestServeDrainsInFlight simulates SIGTERM (context cancel) while a
// request is mid-scoring: the server must flip unready, stop accepting, and
// still complete the in-flight request before Serve returns.
func TestServeDrainsInFlight(t *testing.T) {
	s := testServer(t, Config{Budget: 2 * time.Second, DrainTimeout: 5 * time.Second})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Faults = &engine.FaultHooks{Before: func(context.Context, *rerank.Instance) error {
		close(entered)
		<-release
		return nil
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln) }()

	body, _ := json.Marshal(validRequest())
	url := "http://" + ln.Addr().String()
	type result struct {
		resp *http.Response
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/rerank", "application/json", bytes.NewReader(body))
		inflight <- result{resp, err}
	}()
	<-entered // the request is mid-scoring
	cancel()  // SIGTERM arrives

	// Give Shutdown a moment to begin, then let scoring finish.
	time.Sleep(20 * time.Millisecond)
	if !s.Draining() {
		t.Error("server still ready while draining")
	}
	close(release)

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	defer r.resp.Body.Close()
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request status %d during drain", r.resp.StatusCode)
	}
	var rr engine.Response
	if err := json.NewDecoder(r.resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Ranked) != 3 {
		t.Fatalf("drained response %+v", rr)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}
