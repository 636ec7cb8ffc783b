package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestStateCacheServesRepeatUser is the end-to-end warm path: the first
// request only shows the user to the doorkeeper, the second caches their
// state, the third must hit the cache and return byte-identical scores, and
// a lifecycle flush must both count an invalidation and leave scores exactly
// reproducible (the re-encoded state matches the evicted one).
func TestStateCacheServesRepeatUser(t *testing.T) {
	s := testServer(t, Config{StateCacheBytes: 1 << 20})
	h := s.Handler()
	body := mustJSON(t, validRequest())

	scoresOf := func(w *httptest.ResponseRecorder, which string) []float64 {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s request status %d", which, w.Code)
		}
		var resp engine.Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("degraded response: %s", resp.DegradedReason)
		}
		return resp.Scores
	}
	same := func(got, want []float64, which string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s score count changed: %d vs %d", which, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s score %d diverged: %v vs %v", which, i, got[i], want[i])
			}
		}
	}
	cold := scoresOf(postRerank(t, h, body), "cold")
	if hits, misses := s.met.CacheHits.Value(), s.met.CacheMisses.Value(); hits != 0 || misses != 1 {
		t.Fatalf("after cold request: hits=%d misses=%d, want 0/1", hits, misses)
	}
	if n, _ := s.StateCache().Stats(); n != 0 || s.met.CacheDeferred.Value() != 1 {
		t.Fatalf("a first sighting cached %d states and deferred %d, want 0/1", n, s.met.CacheDeferred.Value())
	}

	same(scoresOf(postRerank(t, h, body), "second"), cold, "second")
	if hits, misses := s.met.CacheHits.Value(), s.met.CacheMisses.Value(); hits != 0 || misses != 2 {
		t.Fatalf("after second request: hits=%d misses=%d, want 0/2", hits, misses)
	}
	if n, _ := s.StateCache().Stats(); n != 1 {
		t.Fatalf("second sighting cached %d states, want 1", n)
	}

	same(scoresOf(postRerank(t, h, body), "warm"), cold, "warm")
	if hits := s.met.CacheHits.Value(); hits != 1 {
		t.Fatalf("warm request did not hit the cache (hits=%d)", hits)
	}

	// Lifecycle invalidation: flush, then the same request re-encodes (a new
	// miss) and still reproduces the cold scores exactly.
	s.FlushStateCache()
	if inv := s.met.CacheInvalidations.Value(); inv != 1 {
		t.Fatalf("flush counted %d invalidations, want 1", inv)
	}
	same(scoresOf(postRerank(t, h, body), "post-flush"), cold, "post-flush")
	if misses := s.met.CacheMisses.Value(); misses != 3 {
		t.Fatalf("post-flush request should miss (misses=%d, want 3)", misses)
	}
}

// TestStateCacheBatchEnvelope: repeat users inside a /v1/rerank:batch
// envelope ride the cache too — the second envelope of the same requests
// must produce hits and identical scores.
func TestStateCacheBatchEnvelope(t *testing.T) {
	s := testServer(t, Config{StateCacheBytes: 1 << 20})
	h := s.Handler()
	env := engine.BatchRequest{Requests: []engine.Request{*validRequest(), *validRequest()}}
	body := mustJSON(t, env)

	first := postBatch(t, h, body)
	if first.Code != http.StatusOK {
		t.Fatalf("first envelope status %d", first.Code)
	}
	// Both items share one (user, history, version) key: the first miss
	// encodes and installs, and within one batch the second identical item is
	// a second miss (the lookup happens before scoring) — so the cache holds
	// one entry either way.
	second := postBatch(t, h, body)
	if second.Code != http.StatusOK {
		t.Fatalf("second envelope status %d", second.Code)
	}
	if hits := s.met.CacheHits.Value(); hits < 2 {
		t.Fatalf("second envelope produced %d hits, want >= 2", hits)
	}
	var r1, r2 engine.BatchResponse
	if err := json.Unmarshal(first.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	for k := range r1.Responses {
		a, b := r1.Responses[k], r2.Responses[k]
		for i := range a.Scores {
			if a.Scores[i] != b.Scores[i] {
				t.Fatalf("envelope item %d score %d diverged", k, i)
			}
		}
	}
}

// TestStateCacheConcurrentStress races scoring against cache reads, writes,
// evictions (tiny budget) and whole-cache flushes. Run under -race in CI; the
// correctness assertion is that every response matches the serially computed
// expectation for its user, hit or miss.
func TestStateCacheConcurrentStress(t *testing.T) {
	// Budget sized for ~2 states: concurrent users constantly evict each other.
	s := testServer(t, Config{StateCacheBytes: 256, Budget: 10 * time.Second})
	h := s.Handler()

	const users = 4
	bodies := make([][]byte, users)
	want := make([][]float64, users)
	for u := 0; u < users; u++ {
		req := validRequest()
		req.UserFeatures[0] = 0.1 * float64(u+1)
		bodies[u] = mustJSON(t, req)
		w := postRerank(t, h, bodies[u])
		if w.Code != http.StatusOK {
			t.Fatalf("seed request for user %d: status %d", u, w.Code)
		}
		var resp engine.Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		want[u] = resp.Scores
	}

	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.FlushStateCache()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				u := (g + iter) % users
				w := postRerank(t, h, bodies[u])
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("user %d: status %d", u, w.Code)
					return
				}
				var resp engine.Response
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errc <- err
					return
				}
				if resp.Degraded {
					errc <- fmt.Errorf("user %d degraded: %s", u, resp.DegradedReason)
					return
				}
				for i := range resp.Scores {
					if resp.Scores[i] != want[u][i] {
						errc <- fmt.Errorf("user %d score %d diverged under concurrency", u, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	flusher.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
