package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rerank"
	"repro/internal/serve"
)

// offsetScorer shifts every score by a per-version offset, so a response's
// score range proves which model actually scored it — a torn (scorer,
// version-label) pair becomes detectable from the outside.
type offsetScorer struct {
	name   string
	offset float64
}

func (s offsetScorer) Name() string { return s.name }
func (s offsetScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return s.scores(inst), nil
}

func (s offsetScorer) scores(inst *rerank.Instance) []float64 {
	out := make([]float64, len(inst.Items))
	for i := range out {
		out[i] = s.offset + inst.InitScores[i]
	}
	return out
}

var versionOffsets = map[string]float64{"v1": 1000, "v2": 2000, "v3": 3000, "v4": 4000}

func offsetLoader(modelPath string) (engine.Scorer, engine.Manifest, error) {
	label := labelFromModelPath(modelPath)
	return offsetScorer{name: label, offset: versionOffsets[label]},
		engine.Manifest{Dataset: label, Config: testGeometry()}, nil
}

// TestConcurrentSwapCoherence hammers Pick from many goroutines while a
// lifecycle driver loads, promotes and rolls back versions as fast as it can.
// Every pin must be a coherent triple: the scorer's name, the manifest's
// dataset and the version label were all stamped with the version at load
// time, so any torn read across the swap would surface as a mismatch. Run
// with -race.
func TestConcurrentSwapCoherence(t *testing.T) {
	labels := []string{"v1", "v2", "v3", "v4"}
	r := newTestRegistry(t, labels, func(c *Config) {
		c.Loader = offsetLoader
		c.CanaryPercent = 25
	})
	if err := r.Load("v1"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swaps atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // lifecycle driver
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			label := labels[i%len(labels)]
			if err := r.Load(label); err != nil && !errors.Is(err, engine.ErrLifecycleConflict) {
				t.Errorf("Load(%s): %v", label, err)
				return
			}
			if err := r.Promote(label); err != nil && !errors.Is(err, engine.ErrLifecycleConflict) {
				t.Errorf("Promote(%s): %v", label, err)
				return
			}
			swaps.Add(1)
			if i%7 == 0 {
				if _, err := r.Rollback(); err != nil && !errors.Is(err, engine.ErrLifecycleConflict) {
					t.Errorf("Rollback: %v", err)
					return
				}
			}
		}
	}()

	var served atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			key := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				key = key*6364136223846793005 + 1442695040888963407
				pin := r.Pick(key)
				if pin.Version == "none" {
					t.Error("served the no-model pin after activation")
					return
				}
				if pin.Scorer.Name() != pin.Version || pin.Manifest.Dataset != pin.Version {
					t.Errorf("torn pin: scorer %q, manifest %q, version %q",
						pin.Scorer.Name(), pin.Manifest.Dataset, pin.Version)
					return
				}
				pin.Observe("ok", time.Microsecond)
				served.Add(1)
			}
		}(uint64(g) + 1)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if served.Load() == 0 || swaps.Load() == 0 {
		t.Fatalf("test exercised nothing: %d picks, %d swaps", served.Load(), swaps.Load())
	}
	t.Logf("%d coherent picks across %d version swaps", served.Load(), swaps.Load())
}

// TestLifecycleUnderLiveHTTPTraffic is the end-to-end acceptance check: a
// provider server takes continuous /v1/rerank and /v1/rerank:batch traffic
// while the admin API loads, promotes and rolls back versions. Not a single
// request may be dropped or fail, every response — each item of an envelope,
// which a canary splits into per-version runs — must carry a version label
// whose score offset matches (no torn swaps observable from outside), and
// /metrics must expose the per-version series for both versions afterwards.
// Run with -race.
func TestLifecycleUnderLiveHTTPTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRegistry(t, []string{"v1", "v2"}, func(c *Config) {
		c.Loader = offsetLoader
		c.CanaryPercent = 30
		c.Registry = reg
	})
	if err := r.Load("v1"); err != nil {
		t.Fatal(err)
	}
	const token = "test-admin-token"
	srv := serve.NewProviderServer(r, serve.Config{
		Registry:    reg,
		Admin:       r,
		AdminToken:  token,
		Budget:      2 * time.Second, // stub scoring is instant; no degrades
		MaxInFlight: 64,
		QueueWait:   2 * time.Second, // nothing may shed in this test
	})
	srv.Log = t.Logf
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	golden := syntheticGolden(testGeometry(), 8, 5)
	bodies := make([][]byte, len(golden))
	for i, req := range golden {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	envelope, err := json.Marshal(engine.BatchRequest{Requests: golden})
	if err != nil {
		t.Fatal(err)
	}

	admin := func(path, version string) int {
		body := []byte("{}")
		if version != "" {
			body = []byte(fmt.Sprintf(`{"version":%q}`, version))
		}
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("admin %s: %v", path, err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, failed atomic.Int64
	// post sends one request and decodes its 200 answer; anything else is a
	// dropped request.
	post := func(path string, body []byte, into any) bool {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			failed.Add(1)
			t.Errorf("request error: %v", err)
			return false
		}
		decErr := json.NewDecoder(resp.Body).Decode(into)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			failed.Add(1)
			t.Errorf("dropped request: status %d", resp.StatusCode)
			return false
		}
		if decErr != nil {
			failed.Add(1)
			t.Errorf("decode: %v", decErr)
			return false
		}
		return true
	}
	// coherent holds one answer to its own label: scored by the version it
	// names.
	coherent := func(rr engine.Response) bool {
		wantOffset, known := versionOffsets[rr.ModelVersion]
		if !known {
			failed.Add(1)
			t.Errorf("response labeled with unknown version %q: %+v", rr.ModelVersion, rr)
			return false
		}
		if !rr.Degraded && len(rr.Scores) > 0 &&
			(rr.Scores[0] < wantOffset || rr.Scores[0] >= wantOffset+1000) {
			failed.Add(1)
			t.Errorf("torn response: version %q but top score %v", rr.ModelVersion, rr.Scores[0])
			return false
		}
		served.Add(1)
		return true
	}
	// Half the clients send single requests, half send the eight as one
	// envelope.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					var rr engine.Response
					if !post("/v1/rerank", bodies[(g+i)%len(bodies)], &rr) || !coherent(rr) {
						return
					}
					continue
				}
				var br engine.BatchResponse
				if !post("/v1/rerank:batch", envelope, &br) {
					return
				}
				if len(br.Responses) != len(golden) {
					failed.Add(1)
					t.Errorf("envelope of %d answered with %d responses", len(golden), len(br.Responses))
					return
				}
				for _, rr := range br.Responses {
					if !coherent(rr) {
						return
					}
				}
			}
		}(g)
	}

	// Lifecycle churn through the public admin API while traffic flows.
	deadline := time.After(400 * time.Millisecond)
churn:
	for i := 0; ; i++ {
		select {
		case <-deadline:
			break churn
		default:
		}
		next := []string{"v2", "v1"}[i%2]
		if code := admin("/admin/models/load", next); code != http.StatusOK && code != http.StatusConflict {
			t.Fatalf("load %s: status %d", next, code)
		}
		time.Sleep(10 * time.Millisecond) // let canary traffic hit the candidate
		if code := admin("/admin/models/promote", next); code != http.StatusOK && code != http.StatusConflict {
			t.Fatalf("promote %s: status %d", next, code)
		}
		if i%3 == 2 {
			if code := admin("/admin/models/rollback", ""); code != http.StatusOK && code != http.StatusConflict {
				t.Fatalf("rollback: status %d", code)
			}
		}
	}
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests dropped or torn during swaps", failed.Load(), served.Load()+failed.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}

	// Both versions must be visible as per-version series on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`rapid_model_requests_total{version="v1"}`,
		`rapid_model_requests_total{version="v2"}`,
		`rapid_model_request_latency_seconds_bucket{version="v1"`,
		`rapid_model_request_latency_seconds_bucket{version="v2"`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	t.Logf("%d requests served with zero drops across lifecycle churn", served.Load())
}
