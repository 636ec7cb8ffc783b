package rapid_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	rapid "repro"
)

// handInstance builds a 4-item re-ranking instance by hand: two "news"
// items, one "sports", one "music", with descending initial scores. No
// dataset or training is involved, so the output is fully deterministic.
func handInstance() *rapid.Instance {
	itemFeat := map[int][]float64{
		1: {0.9, 0.1}, 2: {0.8, 0.2}, 3: {0.1, 0.9}, 4: {0.5, 0.5},
	}
	cover := map[int][]float64{
		1: {1, 0, 0}, // news
		2: {1, 0, 0}, // news
		3: {0, 1, 0}, // sports
		4: {0, 0, 1}, // music
	}
	return &rapid.Instance{
		User:       7,
		UserFeat:   []float64{0.3, 0.7},
		Items:      []int{1, 2, 3, 4},
		InitScores: []float64{0.9, 0.8, 0.5, 0.4},
		Cover:      [][]float64{cover[1], cover[2], cover[3], cover[4]},
		History:    []int{1, 3, 4},
		TopicSeqs:  [][]int{{1}, {3}, {4}},
		M:          3,
		ItemFeat:   func(v int) []float64 { return itemFeat[v] },
		CoverOf:    func(v int) []float64 { return cover[v] },
	}
}

// ExampleApply re-ranks with MMR: the duplicate "news" item is demoted in
// favor of the novel topics.
func ExampleApply() {
	inst := handInstance()
	mmr := rapid.NewMMR()
	mmr.Theta = 0.5
	fmt.Println("initial:", inst.Items)
	fmt.Println("MMR:    ", rapid.Apply(mmr, inst))
	// Output:
	// initial: [1 2 3 4]
	// MMR:     [1 3 4 2]
}

// ExampleNewDPP shows greedy MAP inference selecting a diverse prefix.
func ExampleNewDPP() {
	inst := handInstance()
	order := rapid.Apply(rapid.NewDPP(), inst)
	// The three distinct topics come before the duplicate news item.
	fmt.Println(order[3])
	// Output:
	// 2
}

// ExampleNewServer serves an untrained model over the v1 HTTP API: one
// request on /v1/rerank, then two in one envelope on /v1/rerank:batch. The
// functional options set the scoring deadline and the dataset label.
func ExampleNewServer() {
	model := rapid.NewModel(rapid.DefaultModelConfig(2, 2, 3, 7))
	srv := rapid.NewServer(model, rapid.WithDeadline(50*time.Millisecond), rapid.WithDataset("handmade"))
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
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/rerank", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var out rapid.RerankResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println("ranked:", out.Ranked)

	// A second user sees the last three items; each envelope item is scored
	// and answered on its own.
	other := req
	other.UserFeatures = []float64{0.9, 0.1}
	other.Items = req.Items[1:]
	body, _ = json.Marshal(rapid.RerankBatchRequest{Requests: []rapid.RerankRequest{req, other}})
	resp, err = http.Post(ts.URL+"/v1/rerank:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var batch rapid.RerankBatchResponse
	_ = json.NewDecoder(resp.Body).Decode(&batch)
	for i, r := range batch.Responses {
		fmt.Printf("batch %d: %v\n", i, r.Ranked)
	}
	// Output:
	// ranked: [3 2 4 1]
	// batch 0: [3 2 4 1]
	// batch 1: [3 4 2]
}

// ExampleClickAtK computes the utility metric from expected clicks.
func ExampleClickAtK() {
	exp := []float64{0.5, 0.3, 0.2}
	fmt.Printf("%.1f\n", rapid.ClickAtK(exp, 2))
	// Output:
	// 0.8
}

// ExampleInstance_HistoryPreference derives the empirical topic preference
// a heuristic like adpMMR would use.
func ExampleInstance_HistoryPreference() {
	inst := handInstance()
	pref := inst.HistoryPreference()
	fmt.Printf("%.2f %.2f %.2f\n", pref[0], pref[1], pref[2])
	// Output:
	// 0.33 0.33 0.33
}
