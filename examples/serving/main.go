// Serving: wrap an untrained RAPID model in the hardened HTTP server and
// exercise the v1 scoring API — one single request through POST /v1/rerank
// and a two-request envelope through POST /v1/rerank:batch. The point is the
// wire contract, so the demo stays single-threaded and deterministic.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	rapid "repro"
)

func main() {
	model := rapid.NewModel(rapid.DefaultModelConfig(2, 2, 3, 7))
	srv := rapid.NewServer(model,
		rapid.WithDeadline(50*time.Millisecond),
		rapid.WithDataset("handmade"))

	// An in-process listener keeps the demo self-contained; srv.Handler()
	// mounts on any real net/http server the same way.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := rapid.RerankRequest{
		UserFeatures: []float64{0.3, 0.7},
		Items: []rapid.RerankItem{
			{ID: 1, Features: []float64{0.9, 0.1}, Cover: []float64{1, 0, 0}, InitScore: 0.9},
			{ID: 2, Features: []float64{0.8, 0.2}, Cover: []float64{1, 0, 0}, InitScore: 0.8},
			{ID: 3, Features: []float64{0.1, 0.9}, Cover: []float64{0, 1, 0}, InitScore: 0.5},
			{ID: 4, Features: []float64{0.5, 0.5}, Cover: []float64{0, 0, 1}, InitScore: 0.4},
		},
		TopicSequences: [][]rapid.SeqItemWire{
			{{Features: []float64{0.9, 0.1}}},
			{{Features: []float64{0.1, 0.9}}},
			{{Features: []float64{0.5, 0.5}}},
		},
	}

	var single rapid.RerankResponse
	post(ts.URL+"/v1/rerank", req, &single)
	fmt.Printf("single:   ranked %v (version %s, degraded %v)\n",
		single.Ranked, single.ModelVersion, single.Degraded)

	var batch rapid.RerankBatchResponse
	post(ts.URL+"/v1/rerank:batch", rapid.RerankBatchRequest{
		Requests: []rapid.RerankRequest{req, req},
	}, &batch)
	for i, r := range batch.Responses {
		fmt.Printf("batch[%d]: ranked %v (degraded %v)\n", i, r.Ranked, r.Degraded)
	}
}

func post(url string, in, out any) {
	body, err := json.Marshal(in)
	if err != nil {
		fail(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("%s: status %d", url, resp.StatusCode))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
