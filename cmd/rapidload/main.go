// Command rapidload is an open-loop load generator for the serving fleet:
// it fires re-rank requests at a fixed rate — arrivals do not wait for
// completions, so a slow target builds queueing like real traffic would —
// with user popularity drawn from a Zipf distribution, and reports outcome
// counts and latency percentiles.
//
//	rapidload -target http://127.0.0.1:8090 -manifest model.json \
//	  -rps 200 -duration 30s -max-error-rate 0
//
// -manifest is required: the manifest rapidtrain wrote beside the model is the
// only source of the request geometry (feature dims, topic count).
//
// Each synthetic user has a deterministic feature vector, so the same user
// always produces the same user key (engine.UserKey) and lands on the same
// replica: the Zipf skew therefore exercises the router's consistent-hash
// load shape, not just its aggregate throughput.
//
// With -feedback-pct the generator also plays the user: a ground-truth DCM
// simulates clicks over each served ranking and POSTs the click/skip vector
// to /v1/feedback with the response's request_id, closing the online
// feedback loop end to end.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/serve/binproto"
)

func main() {
	var (
		target   = flag.String("target", "http://127.0.0.1:8090", "base URL of the router or replica under load")
		manifest = flag.String("manifest", "", "model manifest JSON (from rapidtrain) supplying the request geometry (required)")
		listLen  = flag.Int("list-len", 10, "candidate list length per request")

		rps      = flag.Float64("rps", 100, "open-loop arrival rate, requests per second")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		users    = flag.Int("users", 1000, "synthetic user population")
		zipfS    = flag.Float64("zipf-s", 1.2, "Zipf exponent of user popularity (>1; larger = more skew)")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-request timeout")
		seed     = flag.Int64("seed", 1, "user-population and arrival seed")
		repeat   = flag.Float64("repeat-user-pct", 0, "percent of requests that re-issue a previously seen user's exact body (exercises the server's user-state cache)")

		maxErrRat = flag.Float64("max-error-rate", 1, "exit non-zero if errors/requests exceeds this fraction")
		feedback  = flag.Float64("feedback-pct", 0, "percent of OK responses followed by a DCM-simulated click event POSTed to /v1/feedback")
		binary    = flag.String("binary", "", "fire the fleet-internal binary protocol at this TCP address instead of HTTP POST /v1/rerank (scores are bitwise-identical)")
	)
	flag.Parse()
	cfg := loadConfig{
		target: *target, listLen: *listLen,
		rps: *rps, duration: *duration, users: *users, zipfS: *zipfS,
		timeout: *timeout, seed: *seed, repeatUserPct: *repeat,
		maxErrRate: *maxErrRat, feedbackPct: *feedback, binaryAddr: *binary,
	}
	err := cfg.readGeometry(*manifest)
	if err == nil {
		_, err = run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rapidload: %v\n", err)
		os.Exit(1)
	}
}

type loadConfig struct {
	target                            string
	userDim, itemDim, topics, listLen int // the first three from the manifest
	rps                               float64
	duration                          time.Duration
	users                             int
	zipfS                             float64
	timeout                           time.Duration
	seed                              int64
	repeatUserPct                     float64
	maxErrRate                        float64
	feedbackPct                       float64
	binaryAddr                        string
}

// readGeometry takes the request geometry from the manifest rapidtrain wrote
// next to the model under load: requests of any other shape are 400s.
func (c *loadConfig) readGeometry(manifest string) error {
	if manifest == "" {
		return errors.New("-manifest is required: it supplies the request geometry")
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		return err
	}
	var man engine.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("manifest %s: %v", manifest, err)
	}
	c.userDim, c.itemDim, c.topics = man.Config.UserDim, man.Config.ItemDim, man.Config.Topics
	return nil
}

// outcome tallies terminal request results under one mutex with the latency
// sample.
type outcome struct {
	mu        sync.Mutex
	ok        int64
	degraded  int64
	shed      int64
	errors    int64
	fbOK      int64
	fbErr     int64
	latencyMS []float64
}

// run validates cfg, drives the load and prints the summary. The tallies come
// back beside the error so a failed -max-error-rate run still reports them.
func run(cfg loadConfig) (*outcome, error) {
	if cfg.rps <= 0 || cfg.users <= 0 || cfg.listLen <= 0 {
		return nil, fmt.Errorf("rps, users and list-len must be positive")
	}
	if cfg.zipfS <= 1 {
		return nil, fmt.Errorf("zipf-s must be > 1")
	}
	if cfg.repeatUserPct < 0 || cfg.repeatUserPct > 100 {
		return nil, fmt.Errorf("repeat-user-pct must be in [0,100]")
	}
	if cfg.feedbackPct < 0 || cfg.feedbackPct > 100 {
		return nil, fmt.Errorf("feedback-pct must be in [0,100]")
	}
	if cfg.binaryAddr != "" && cfg.feedbackPct > 0 {
		return nil, fmt.Errorf("-feedback-pct requires the HTTP surface; drop it or drop -binary")
	}

	bodies := newBodyCache(cfg)
	sim := newClickSim(cfg, bodies)
	var pool *binPool
	if cfg.binaryAddr != "" {
		pool = &binPool{addr: cfg.binaryAddr}
		defer pool.closeAll()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.users-1))
	client := &http.Client{Timeout: cfg.timeout}
	res := &outcome{}
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / cfg.rps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.duration)
	defer deadline.Stop()

	label := cfg.target
	if cfg.binaryAddr != "" {
		label = "binary://" + cfg.binaryAddr
	}
	fmt.Fprintf(os.Stderr, "rapidload: %s at %.0f rps for %v (%d users, zipf %.2f, repeat %.0f%%)\n",
		label, cfg.rps, cfg.duration, cfg.users, cfg.zipfS, cfg.repeatUserPct)
	var issued []int
	start := time.Now()
loop:
	for {
		select {
		case <-deadline.C:
			break loop
		case <-ticker.C:
			// -repeat-user-pct re-issues an already-seen user's byte-identical
			// body (bodyCache is deterministic per user), modelling the
			// returning-user traffic the server's encoded-state cache serves.
			// The repeat pool is the issued history, so popular users repeat
			// proportionally more — Zipf skew carries into the repeats.
			var user int
			if len(issued) > 0 && rng.Float64()*100 < cfg.repeatUserPct {
				user = issued[rng.Intn(len(issued))]
			} else {
				user = int(zipf.Uint64())
			}
			issued = append(issued, user)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if pool != nil {
					fireBinary(pool, bodies.request(user), cfg.timeout, res)
					return
				}
				fire(client, cfg.target, user, bodies.get(user), res, sim)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.mu.Lock()
	defer res.mu.Unlock()
	p50, p90, p99, max := percentiles(res.latencyMS)
	total := res.ok + res.degraded + res.shed + res.errors
	fmt.Fprintf(os.Stderr,
		"rapidload: %d requests in %v — ok %d, degraded %d, shed %d, errors %d\n"+
			"rapidload: latency p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms\n",
		total, elapsed.Round(time.Millisecond), res.ok, res.degraded, res.shed, res.errors,
		p50, p90, p99, max)
	if sim != nil {
		fmt.Fprintf(os.Stderr, "rapidload: feedback events — accepted %d, failed %d\n", res.fbOK, res.fbErr)
	}

	if total > 0 && float64(res.errors)/float64(total) > cfg.maxErrRate {
		return res, fmt.Errorf("error rate %.3f exceeds -max-error-rate %.3f",
			float64(res.errors)/float64(total), cfg.maxErrRate)
	}
	return res, nil
}

// percentiles summarizes a latency sample in milliseconds. The slice is
// sorted in place.
func percentiles(ms []float64) (p50, p90, p99, max float64) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(ms)
	at := func(q float64) float64 { return ms[int(q*float64(len(ms)-1))] }
	return at(0.50), at(0.90), at(0.99), ms[len(ms)-1]
}

// fire sends one request, classifies the result, and — when click
// simulation is on — follows a successful response with a feedback event.
func fire(client *http.Client, target string, user int, body []byte, res *outcome, sim *clickSim) {
	start := time.Now()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
		target+"/v1/rerank", bytes.NewReader(body))
	if err != nil {
		res.add("error", 0)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		res.add("error", time.Since(start))
		return
	}
	defer resp.Body.Close()
	var rr engine.Response
	dec := json.NewDecoder(resp.Body)
	lat := time.Since(start)
	switch {
	case resp.StatusCode == http.StatusOK:
		decoded := dec.Decode(&rr) == nil
		if decoded && rr.Degraded {
			res.add("degraded", lat)
		} else {
			res.add("ok", lat)
		}
		if decoded && sim != nil {
			sim.maybeSend(client, user, &rr, res)
		}
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		res.add("shed", lat)
	default:
		res.add("error", lat)
	}
}

// binPool reuses binary-protocol connections across the open-loop arrivals:
// each Client serializes its calls on one connection, so concurrency is a
// connection per in-flight request, parked here between uses.
type binPool struct {
	addr string
	mu   sync.Mutex
	free []*binproto.Client
}

func (p *binPool) get() (*binproto.Client, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return binproto.Dial(p.addr)
}

func (p *binPool) put(c *binproto.Client) {
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

func (p *binPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.free {
		c.Close()
	}
	p.free = nil
}

// fireBinary sends one request over the binary protocol and classifies the
// outcome exactly like the HTTP path: engine error frames map shed codes to
// "shed", transport failures retire the connection.
func fireBinary(pool *binPool, req *engine.Request, timeout time.Duration, res *outcome) {
	start := time.Now()
	c, err := pool.get()
	if err != nil {
		res.add("error", 0)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	rr, err := c.Rerank(ctx, req)
	lat := time.Since(start)
	if err != nil {
		var re *binproto.RemoteError
		if errors.As(err, &re) {
			pool.put(c) // protocol-level error: the connection stays usable
			if re.Retryable() {
				res.add("shed", lat)
			} else {
				res.add("error", lat)
			}
			return
		}
		c.Close()
		res.add("error", lat)
		return
	}
	pool.put(c)
	if rr.Degraded {
		res.add("degraded", lat)
	} else {
		res.add("ok", lat)
	}
}

// clickSim turns the load generator into the closed feedback loop's user: a
// ground-truth DCM (λ=1 — attraction is the item's own init_score, the same
// signal the server ranked by) scans each served list top-down and the
// resulting click/skip vector is POSTed back to /v1/feedback with the
// response's request_id.
type clickSim struct {
	pct    float64
	dcm    *clickmodel.DCM
	mu     sync.Mutex
	rng    *rand.Rand
	target string
}

func newClickSim(cfg loadConfig, bodies *bodyCache) *clickSim {
	if cfg.feedbackPct <= 0 {
		return nil
	}
	zero := make([]float64, cfg.topics)
	return &clickSim{
		pct:    cfg.feedbackPct,
		target: cfg.target,
		rng:    rand.New(rand.NewSource(cfg.seed + 1)),
		dcm: &clickmodel.DCM{
			Lambda:      1,
			Relevance:   func(_, item int) float64 { return bodies.initScore(item) },
			DivWeight:   func(int) []float64 { return zero },
			Cover:       func(int) []float64 { return zero },
			Termination: clickmodel.DefaultTermination(cfg.listLen, 0.6, 0.85),
			Topics:      cfg.topics,
		},
	}
}

func (s *clickSim) maybeSend(client *http.Client, user int, rr *engine.Response, res *outcome) {
	if rr.RequestID == "" || len(rr.Ranked) == 0 {
		return
	}
	s.mu.Lock()
	send := s.rng.Float64()*100 < s.pct
	var clicks []bool
	if send {
		clicks, _ = s.dcm.Simulate(user, rr.Ranked, s.rng)
	}
	s.mu.Unlock()
	if !send {
		return
	}
	ev := engine.FeedbackEvent{
		RequestID:    rr.RequestID,
		Items:        rr.Ranked,
		Clicks:       clicks,
		ModelVersion: rr.ModelVersion,
	}
	body, err := json.Marshal(&ev)
	if err != nil {
		res.add("fb-err", 0)
		return
	}
	resp, err := client.Post(s.target+"/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		res.add("fb-err", 0)
		return
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		res.add("fb-ok", 0)
	} else {
		res.add("fb-err", 0)
	}
}

func (o *outcome) add(kind string, lat time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch kind {
	case "ok":
		o.ok++
	case "degraded":
		o.degraded++
	case "shed":
		o.shed++
	case "fb-ok":
		o.fbOK++
	case "fb-err":
		o.fbErr++
	default:
		o.errors++
	}
	if lat > 0 {
		o.latencyMS = append(o.latencyMS, float64(lat)/float64(time.Millisecond))
	}
}

// bodyCache lazily builds one deterministic request body per synthetic user:
// features are seeded by the user id, so user u's body — and therefore its
// user key and owning replica — is identical across runs and processes.
type bodyCache struct {
	cfg    loadConfig
	mu     sync.Mutex
	by     map[int][]byte
	reqs   map[int]*engine.Request // decoded form, for the binary path
	scores map[int]float64         // item id → init_score, for the click simulator
}

func newBodyCache(cfg loadConfig) *bodyCache {
	return &bodyCache{cfg: cfg, by: make(map[int][]byte),
		reqs: make(map[int]*engine.Request), scores: make(map[int]float64)}
}

// initScore recalls the init_score a generated item was sent with; the click
// simulator uses it as the item's ground-truth attraction. Unknown ids (never
// generated by this process) read as weakly attractive.
func (c *bodyCache) initScore(item int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.scores[item]; ok {
		return s
	}
	return 0.1
}

func (c *bodyCache) get(user int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.by[user]; ok {
		return b
	}
	b := c.build(user)
	c.by[user] = b
	return b
}

// request returns user's deterministic request in decoded form — the same
// bytes get(user) serializes, for the binary protocol path.
func (c *bodyCache) request(user int) *engine.Request {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.reqs[user]; ok {
		return r
	}
	c.build(user)
	return c.reqs[user]
}

func (c *bodyCache) build(user int) []byte {
	rng := rand.New(rand.NewSource(int64(user) + 1))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	req := engine.Request{
		UserFeatures:   vec(c.cfg.userDim),
		TopicSequences: make([][]engine.SeqItem, c.cfg.topics),
	}
	for j := range req.TopicSequences {
		seq := make([]engine.SeqItem, 2)
		for k := range seq {
			seq[k] = engine.SeqItem{Features: vec(c.cfg.itemDim)}
		}
		req.TopicSequences[j] = seq
	}
	for i := 0; i < c.cfg.listLen; i++ {
		cover := make([]float64, c.cfg.topics)
		for j := range cover {
			cover[j] = rng.Float64() * 0.5
		}
		it := engine.Item{
			ID:        user*1000 + i,
			Features:  vec(c.cfg.itemDim),
			Cover:     cover,
			InitScore: rng.Float64(),
		}
		c.scores[it.ID] = it.InitScore
		req.Items = append(req.Items, it)
	}
	c.reqs[user] = &req
	b, err := json.Marshal(&req)
	if err != nil {
		panic(err) // static shape; cannot fail
	}
	return b
}
