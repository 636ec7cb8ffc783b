package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/serve/binproto"
)

// Serving configuration shared by the three serving workloads: what
// rapidserve runs with, except for the scoring budget. rapidserve degrades a
// request after 50 ms; on a shared host a stall that long says nothing about
// the code, and a degraded response counts as a failed operation here, so
// the budget is wide enough that only a real fault trips it.
var serveConfig = serve.Config{
	Budget:          2 * time.Second,
	StateCacheBytes: 64 << 20,
	Batch:           engine.BatchConfig{MaxBatch: 16, MaxWait: coalesceWait},
}

// coalesceWait is the engine's default gathering window, stated here because
// it is the one wall-clock timer on a request's path: see slice.waitMS.
const coalesceWait = 2 * time.Millisecond

const (
	poolUsers  = 256  // distinct request templates of the single-engine workloads
	fleetUsers = 2000 // user population of fleet_c1_zipf
	// P(user k) ∝ (zipfV+k)^-zipfS. zipfV flattens the head: the hottest user
	// is 5% of the traffic, not the 17% of zipfV = 1, so a seed's luck with
	// its three hottest users does not set the run.
	zipfS          = 1.1
	zipfV          = 4
	repeatWindow   = 512 // http_c2_repeat re-issues from this many most recent users
	repeatShare    = 0.9
	parityRequests = 64

	// http_c2_repeat's second client pauses this long between requests. Two
	// clients both sending back to back lock into a cycle in which about half
	// the requests dispatch at once and half sit out the coalescer's MaxWait,
	// so the median falls on the boundary between the two and jumps from one
	// to the other between identical runs (measured spread 40%). The same
	// holds for any gated percentile: the share of requests that meet the
	// coalescer is the occasional caller's rate over the steady caller's,
	// and the steady caller's rate follows the host's speed, so the edge of
	// the wait moves with the host. At this pause the share is 2.5% on a
	// fast hour and 7% at the slowest speed a slice is accepted at: the
	// median and the p90 are the warm path whatever the host does, and the
	// p99 the traced run reports is the wait. A pause of 4–12 ms makes the
	// share 6–18% and puts the p90 on the edge.
	thinkMin = 10 * time.Millisecond
	thinkMax = 30 * time.Millisecond
)

// op is one request of the measured loop and what became of it.
type op struct {
	entry   int
	result  outcome
	ms      float64 // send → reply decoded and checked
	replica string  // fleet: the X-Router-Replica header
}

// client is one closed-loop caller: it sends its next request when the
// previous reply has been decoded and checked.
type client struct {
	// next picks the request and send issues it; req is the number the
	// traced run attaches to it.
	next func() (entry int, body []byte)
	send func(entry int, body []byte, req int64) op
	// think, when set, is how long the caller does other work between a
	// reply and its next request.
	think func() time.Duration
}

// serving is one built stack with its load generator.
type serving struct {
	name    string
	entries []entry // the seeded request pool
	model   *core.Model
	tr      *tracer
	clients []*client
	engines []*engine.Engine
	closers []func()
	reqSeq  int64
	// fetch issues pool entry k, unstamped, through the workload's front door
	// and returns the decoded response: the parity check's view of it.
	fetch func(k int) (*engine.Response, error)

	// Traced runs also keep, per traced slice, which replica served each
	// user, for router.affinity_ratio.
	lastReplica   map[int]string
	repeats, kept int
}

func (s *serving) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// scorer is what the engines score with: the model itself, or in a traced
// run the model inside the span-recording wrapper.
func (s *serving) scorer() engine.Scorer {
	if s.tr != nil {
		return &tracedScorer{m: s.model, t: s.tr}
	}
	return s.model
}

// newReplica starts one serve.Server — engine, state cache, HTTP handler —
// on a loopback listener.
func (s *serving) newReplica() *httptest.Server {
	srv := serve.NewServer(s.scorer(), engine.Manifest{Dataset: "bench", Config: s.model.Cfg}, serveConfig)
	srv.Log = func(string, ...any) {}
	hts := httptest.NewServer(s.tr.wrap(layerServe, srv.Handler()))
	s.engines = append(s.engines, srv.Engine)
	s.closers = append(s.closers, func() { hts.Close(); srv.Engine.Close() })
	return hts
}

// setupServing builds workload name from scratch: model, seeded pool,
// servers on loopback, connected clients, parity check and warm-up.
func setupServing(name string, seed int64, warmup int, tr *tracer) (*serving, error) {
	s := &serving{name: name, model: core.New(modelConfig()), tr: tr, lastReplica: map[int]string{}}
	var err error
	switch name {
	case binC1Unique:
		err = s.setupBinary(seed)
	case httpC2Repeat:
		err = s.setupHTTP(seed)
	case fleetC1Zipf:
		err = s.setupFleet(seed)
	default:
		err = fmt.Errorf("no serving workload %q", name)
	}
	if err == nil {
		err = s.checkParity()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	// Warm-up brings tape pools, coalescer workers, connections and caches
	// to their steady state; its operations are not counted.
	s.drive(time.Time{}, warmup)
	return s, nil
}

func (s *serving) setupBinary(seed int64) (err error) {
	if s.entries, err = newPool(seed, poolUsers, []int{20}, false); err != nil {
		return err
	}
	eng := engine.NewStatic(s.scorer(), engine.Manifest{Dataset: "bench", Config: s.model.Cfg}, engine.Config{
		Budget: serveConfig.Budget, StateCacheBytes: serveConfig.StateCacheBytes, Batch: serveConfig.Batch,
	})
	eng.Log = func(string, ...any) {}
	s.engines = append(s.engines, eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	bs := &binproto.Server{Eng: eng, Log: func(string, ...any) {}}
	served := make(chan struct{})
	go func() { defer close(served); _ = bs.Serve(ln) }()
	s.closers = append(s.closers, func() {
		ln.Close()
		bs.Shutdown(context.Background())
		<-served
		eng.Close()
	})
	cli, err := binproto.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	s.closers = append(s.closers, func() { cli.Close() })
	s.fetch = func(k int) (*engine.Response, error) {
		resp, err := cli.Rerank(context.Background(), &s.entries[k].req)
		return &resp, err
	}

	// Every request is a user nobody has seen: the next template, stamped
	// with a serial that never repeats, so the state cache always misses.
	cursor, serial := 0, 0
	s.clients = []*client{{
		next: func() (int, []byte) {
			k := cursor % len(s.entries)
			cursor++
			serial++
			s.entries[k].stamp(serial)
			return k, nil
		},
		send: func(k int, _ []byte, _ int64) op {
			e := &s.entries[k]
			resp, err := cli.Rerank(context.Background(), &e.req)
			if err != nil {
				return op{entry: k, result: classify(err)}
			}
			return op{entry: k, result: judge(&resp, k, e)}
		},
	}}
	return nil
}

// httpSender returns a client's send over POST url/v1/rerank. Each client
// has its own decode buffers; they share hc's connection pool.
func (s *serving) httpSender(hc *http.Client, url string) func(int, []byte, int64) op {
	var buf bytes.Buffer
	var resp engine.Response
	return func(k int, body []byte, req int64) op {
		hreq, err := http.NewRequest(http.MethodPost, url+"/v1/rerank", bytes.NewReader(body))
		if err != nil {
			return op{entry: k, result: failedTransport}
		}
		hreq.Header.Set("Content-Type", "application/json")
		if s.tr.enabled() {
			hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		}
		hresp, err := hc.Do(hreq)
		if err != nil {
			return op{entry: k, result: failedTransport}
		}
		buf.Reset()
		_, err = buf.ReadFrom(hresp.Body)
		hresp.Body.Close()
		o := op{entry: k, replica: hresp.Header.Get("X-Router-Replica")}
		switch {
		case err != nil:
			o.result = failedTransport
		case hresp.StatusCode == http.StatusTooManyRequests || hresp.StatusCode == http.StatusServiceUnavailable:
			o.result = failedShed
		case hresp.StatusCode != http.StatusOK:
			o.result = failedRemote
		default:
			resp = engine.Response{Ranked: resp.Ranked[:0], Scores: resp.Scores[:0]}
			if json.Unmarshal(buf.Bytes(), &resp) != nil {
				o.result = failedInvalid
			} else {
				o.result = judge(&resp, k, &s.entries[k])
			}
		}
		return o
	}
}

func (s *serving) newHTTPClient(conns int) *http.Client {
	tp := &http.Transport{MaxIdleConns: 2 * conns, MaxIdleConnsPerHost: 2 * conns}
	s.closers = append(s.closers, tp.CloseIdleConnections)
	return &http.Client{Transport: tp}
}

func (s *serving) setupHTTP(seed int64) (err error) {
	if s.entries, err = newPool(seed, poolUsers, []int{20}, true); err != nil {
		return err
	}
	hts := s.newReplica()
	s.fetch = s.httpFetch(hts.URL)
	const clients = 2
	hc := s.newHTTPClient(clients)
	for c := 0; c < clients; c++ {
		// Each client re-issues from its own half of the repeat window, so
		// the two never write the same buffer.
		type issued struct {
			entry int
			body  []byte
		}
		ring := make([]issued, 0, repeatWindow/clients)
		rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
		cursor, head, made := c*len(s.entries)/clients, 0, 0
		c := c
		var think func() time.Duration
		if c > 0 {
			think = func() time.Duration {
				return thinkMin + time.Duration(rng.Int63n(int64(thinkMax-thinkMin)))
			}
		}
		s.clients = append(s.clients, &client{
			think: think,
			send:  s.httpSender(hc, hts.URL),
			next: func() (int, []byte) {
				if len(ring) > 0 && rng.Float64() < repeatShare {
					// A returning user: byte for byte what they sent before.
					r := ring[rng.Intn(len(ring))]
					return r.entry, r.body
				}
				k := cursor % len(s.entries)
				cursor++
				made++
				if len(ring) < cap(ring) {
					ring = append(ring, issued{})
					head = len(ring) - 1
				} else {
					head = (head + 1) % len(ring)
				}
				ring[head] = issued{k, s.entries[k].stampBody(ring[head].body, made*clients+c)}
				return k, ring[head].body
			},
		})
	}
	return nil
}

func (s *serving) setupFleet(seed int64) (err error) {
	if s.entries, err = newPool(seed, fleetUsers, []int{10, 20, 20, 30}, true); err != nil {
		return err
	}
	var replicas []router.Replica
	for i := 0; i < 2; i++ {
		hts := s.newReplica()
		replicas = append(replicas, router.Replica{ID: fmt.Sprintf("replica-%d", i), URL: hts.URL})
	}
	rt, err := router.New(router.Config{Replicas: replicas})
	if err != nil {
		return err
	}
	rt.Start()
	front := httptest.NewServer(s.tr.wrap(layerRouter, rt.Handler()))
	s.closers = append(s.closers, func() { front.Close(); rt.Close() })
	s.fetch = s.httpFetch(front.URL)

	// Each user always sends the same body, so the router's consistent hash
	// sends them to the same replica and that replica's cache knows them.
	rng := rand.New(rand.NewSource(seed<<8 + 1))
	zipf := rand.NewZipf(rng, zipfS, zipfV, fleetUsers-1)
	s.clients = []*client{{
		send: s.httpSender(s.newHTTPClient(1), front.URL),
		next: func() (int, []byte) {
			k := int(zipf.Uint64())
			return k, s.entries[k].body
		},
	}}
	return nil
}

// checkParity sends pool requests through the workload's transport and
// compares ranking and scores bit for bit with the model called directly.
func (s *serving) checkParity() error {
	ctx := context.Background()
	n := min(parityRequests, len(s.entries))
	for k := 0; k < n; k++ {
		e := &s.entries[k]
		e.stamp(0)
		ranked, scores, err := direct(ctx, s.model, &e.req)
		if err != nil {
			return fmt.Errorf("parity: direct call on entry %d: %w", k, err)
		}
		resp, err := s.fetch(k)
		if err != nil {
			return fmt.Errorf("parity: entry %d through %s: %w", k, s.name, err)
		}
		if resp.Degraded {
			return fmt.Errorf("parity: entry %d through %s: degraded (%s)", k, s.name, resp.DegradedReason)
		}
		if err := parity(resp, ranked, scores); err != nil {
			return fmt.Errorf("parity: entry %d through %s: %w", k, s.name, err)
		}
	}
	return nil
}

func (s *serving) httpFetch(url string) func(int) (*engine.Response, error) {
	return func(k int) (*engine.Response, error) {
		hresp, err := http.Post(url+"/v1/rerank", "application/json", bytes.NewReader(s.entries[k].body))
		if err != nil {
			return nil, err
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", hresp.StatusCode)
		}
		var resp engine.Response
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
}

// drive runs every client's closed loop until the clock passes until (when
// set) or the clients together have started count operations (when
// positive), and returns the operations, each client's in order.
func (s *serving) drive(until time.Time, count int) []op {
	var started atomic.Int64
	var wg sync.WaitGroup
	per := make([][]op, len(s.clients))
	for c, cl := range s.clients {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			ops := make([]op, 0, 4096)
			for (count <= 0 || started.Add(1) <= int64(count)) && (until.IsZero() || time.Now().Before(until)) {
				k, body := cl.next()
				req := s.reqSeq + int64(c)<<40 + int64(len(ops))
				start := time.Now()
				o := cl.send(k, body, req)
				end := time.Now()
				o.ms = float64(end.Sub(start).Nanoseconds()) / 1e6
				if s.tr.enabled() {
					s.tr.add(span{layer: layerClient, req: req, entry: k, start: s.tr.at(start), end: s.tr.at(end), replica: o.replica})
				}
				ops = append(ops, o)
				if cl.think != nil {
					pause := cl.think()
					if !until.IsZero() {
						pause = min(pause, until.Sub(end))
					}
					time.Sleep(pause)
				}
			}
			per[c] = ops
		}(c, cl)
	}
	wg.Wait()
	var all []op
	for _, ops := range per {
		all = append(all, ops...)
	}
	s.reqSeq += 1 << 20
	return all
}

// measure runs one slice: every client loops for dur, then the slice waits
// for the requests in flight, so the reference kernel that follows runs with
// the workload idle.
func (s *serving) measure(dur time.Duration) slice {
	m0, c0, start := mallocs(), cpuMS(), time.Now()
	ops := s.drive(start.Add(dur), 0)
	wall := time.Since(start).Seconds()
	c1, m1 := cpuMS(), mallocs()

	sl := slice{wallS: wall, lists: len(ops), cpuMS: c1 - c0, mallocs: m1 - m0}
	if len(s.clients) > 1 {
		// Only with two requests in flight does the coalescer hold one back.
		sl.waitMS = float64(coalesceWait) / float64(time.Millisecond)
	}
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = o.ms
		if o.result != ok {
			sl.failed++
		}
		if o.replica != "" && s.tr.enabled() {
			s.noteReplica(o)
		}
	}
	sort.Float64s(lat)
	sl.p50MS, sl.p90MS, sl.p99MS = percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99)
	return sl
}

// noteReplica counts, among users seen before, those the router sent to the
// replica that served them last time.
func (s *serving) noteReplica(o op) {
	if last, seen := s.lastReplica[o.entry]; seen {
		s.repeats++
		if last == o.replica {
			s.kept++
		}
	}
	s.lastReplica[o.entry] = o.replica
}
