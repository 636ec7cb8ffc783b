package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestPercentiles(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, descending
	}
	for _, tc := range []struct {
		name               string
		in                 []float64
		p50, p90, p99, max float64
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 7, 7},
		{"hundred", hundred, 50, 90, 99, 100},
		{"unsorted", []float64{9, 1, 5, 3, 7}, 5, 7, 7, 9},
	} {
		p50, p90, p99, max := percentiles(tc.in)
		if p50 != tc.p50 || p90 != tc.p90 || p99 != tc.p99 || max != tc.max {
			t.Errorf("%s: got p50 %v p90 %v p99 %v max %v, want %v %v %v %v",
				tc.name, p50, p90, p99, max, tc.p50, tc.p90, tc.p99, tc.max)
		}
	}
}

// validConfig is a run that would pass validation; each rejection case
// breaks exactly one field of it.
func validConfig() loadConfig {
	return loadConfig{
		target:  "http://127.0.0.1:0",
		userDim: 4, itemDim: 4, topics: 2, listLen: 3,
		rps: 200, duration: 300 * time.Millisecond, users: 50, zipfS: 1.2,
		timeout: time.Second, seed: 1, maxErrRate: 1,
	}
}

// TestReadGeometry: the manifest is the only source of the request shape, so
// a run without one is refused instead of firing requests the model rejects.
func TestReadGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	raw, err := json.Marshal(engine.Manifest{Config: core.Config{UserDim: 13, ItemDim: 8, Topics: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var cfg loadConfig
	if err := cfg.readGeometry(path); err != nil || cfg.userDim != 13 || cfg.itemDim != 8 || cfg.topics != 5 {
		t.Fatalf("readGeometry = %v, geometry %d/%d/%d, want 13/8/5", err, cfg.userDim, cfg.itemDim, cfg.topics)
	}
	for _, bad := range []string{"", filepath.Join(t.TempDir(), "missing.json")} {
		if err := cfg.readGeometry(bad); err == nil {
			t.Errorf("readGeometry(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*loadConfig)
	}{
		{"rps zero", func(c *loadConfig) { c.rps = 0 }},
		{"rps negative", func(c *loadConfig) { c.rps = -5 }},
		{"zipf-s one", func(c *loadConfig) { c.zipfS = 1 }},
		{"zipf-s below one", func(c *loadConfig) { c.zipfS = 0.5 }},
		{"repeat-user-pct negative", func(c *loadConfig) { c.repeatUserPct = -1 }},
		{"repeat-user-pct over 100", func(c *loadConfig) { c.repeatUserPct = 100.5 }},
		{"feedback-pct negative", func(c *loadConfig) { c.feedbackPct = -1 }},
		{"feedback-pct over 100", func(c *loadConfig) { c.feedbackPct = 101 }},
		{"feedback-pct with binary", func(c *loadConfig) { c.feedbackPct = 10; c.binaryAddr = "127.0.0.1:1" }},
	} {
		cfg := validConfig()
		tc.mutate(&cfg)
		if res, err := run(cfg); err == nil || res != nil {
			t.Errorf("%s: run = (%v, %v), want a validation error before any load", tc.name, res, err)
		}
	}
}

// TestRunClassifiesOutcomes drives a short open-loop run at a stub that
// answers 200 / 200-degraded / 429 / 500 in turn and checks that every
// answer lands in its tally, and that the error tally is what
// -max-error-rate judges.
func TestRunClassifiesOutcomes(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.Method != http.MethodPost || r.URL.Path != "/v1/rerank" {
			http.NotFound(w, r)
			return
		}
		switch (served.Add(1) - 1) % 4 {
		case 0:
			json.NewEncoder(w).Encode(&engine.Response{Ranked: []int{1}})
		case 1:
			json.NewEncoder(w).Encode(&engine.Response{Ranked: []int{1}, Degraded: true})
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	for _, tc := range []struct {
		name       string
		maxErrRate float64
		wantErr    bool
	}{
		{"errors tolerated", 1, false},
		{"max-error-rate 0", 0, true},
	} {
		before := served.Load()
		cfg := validConfig()
		cfg.target = srv.URL
		cfg.maxErrRate = tc.maxErrRate
		res, err := run(cfg)
		if res == nil {
			t.Fatalf("%s: no tallies (err %v)", tc.name, err)
		}
		n := served.Load() - before
		if n < 8 {
			t.Fatalf("%s: stub served only %d requests in %v at %v rps", tc.name, n, cfg.duration, cfg.rps)
		}
		// The stub takes its turn on arrival: answer k is kind k%4.
		var want [4]int64
		for k := before; k < before+n; k++ {
			want[k%4]++
		}
		got := [4]int64{res.ok, res.degraded, res.shed, res.errors}
		if got != want {
			t.Errorf("%s: ok/degraded/shed/errors = %v, want %v of %d served", tc.name, got, want, n)
		}
		if int64(len(res.latencyMS)) != n {
			t.Errorf("%s: %d latency samples for %d answers", tc.name, len(res.latencyMS), n)
		}
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}
