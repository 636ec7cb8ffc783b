package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rerank"
)

// Layers that record spans, outermost first. A request's spans nest in this
// order; a workload has only the layers on its path.
const (
	layerClient = "client" // send → reply decoded: the root
	layerRouter = "router" // around router.Handler()
	layerServe  = "serve"  // around serve.Server.Handler()
	layerCore   = "core"   // around *core.Model as the engine's scorer
)

// reqHeader carries the client's request number to the first server-side
// hop, so two requests in flight at once keep their spans apart. The router
// does not forward it; behind the router a span finds its request by lying
// inside the router's span.
const reqHeader = "X-Bench-Req"

// span is one timed stretch of one layer's work.
type span struct {
	layer      string
	req        int64 // client's request number; -1 where the layer cannot know it
	entry      int   // client: the pool entry requested
	start, end int64 // ns since the tracer's epoch
	replica    string
	// core only: the pool entry of every instance in the scorer call and how
	// many arrived with a cached user state.
	entries []int
	cached  int

	id, parent int // assigned by join
	reqs       []int64
}

// tracer collects spans in memory. It is installed for the whole traced run
// and switched on only during traced slices, so the untraced slices it is
// compared with run the same wrappers with the switch off.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// enabled is safe on a nil tracer, which is what an untraced run has.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// wrap records a span around every re-rank request h serves.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/rerank" {
			h.ServeHTTP(w, r)
			return
		}
		req := int64(-1)
		if v := r.Header.Get(reqHeader); v != "" {
			req, _ = strconv.ParseInt(v, 10, 64)
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{layer: layer, req: req, start: start, end: t.now()})
	})
}

// tracedScorer is *core.Model as the engine sees it — Scorer, BatchScorer and
// StateScorer — with a span around each call. It is used through a pointer,
// which keeps it comparable, as the coalescer's batch key requires.
type tracedScorer struct {
	m *core.Model
	t *tracer
}

func (s *tracedScorer) Name() string { return s.m.Name() }

func (s *tracedScorer) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	out, err := s.ScoreBatch(ctx, []*rerank.Instance{inst})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func (s *tracedScorer) ScoreBatch(ctx context.Context, insts []*rerank.Instance) ([][]float64, error) {
	out, _, err := s.ScoreBatchStates(ctx, insts, nil)
	return out, err
}

func (s *tracedScorer) ScoreBatchStates(ctx context.Context, insts []*rerank.Instance, states []*core.UserState) ([][]float64, []*core.UserState, error) {
	if !s.t.on.Load() {
		return s.m.ScoreBatchStates(ctx, insts, states)
	}
	sp := span{layer: layerCore, req: -1, entries: make([]int, len(insts))}
	for i, inst := range insts {
		sp.entries[i] = inst.Items[0] / idStride
		if i < len(states) && states[i] != nil {
			sp.cached++
		}
	}
	sp.start = s.t.now()
	out, used, err := s.m.ScoreBatchStates(ctx, insts, states)
	sp.end = s.t.now()
	s.t.add(sp)
	return out, used, err
}

// joined is one request with the span of each layer it crossed (nil where
// the workload has no such layer).
type joined struct {
	client, router, serve, core *span
	attempts                    int   // replica exchanges the router made for it
	serveNS                     int64 // total time inside replica handlers
}

// selfTimes splits the client span among the layers: a layer's self time is
// its span minus the child spans inside it, so the parts add up to the
// client span exactly and nothing is left unnamed.
func (j joined) selfTimes() (client, router, serve, core int64) {
	core = j.core.end - j.core.start
	below := core // time covered by the layers under the one being split off
	if j.serve != nil {
		serve, below = j.serveNS-below, j.serveNS
	}
	if j.router != nil {
		r := j.router.end - j.router.start
		router, below = r-below, r
	}
	return j.client.end - j.client.start - below, router, serve, core
}

// join groups the collected spans by request and gives every span its id
// and parent. Requests whose spans are incomplete — a failed operation —
// are left out and counted.
func (t *tracer) join() (reqs []joined, unjoined int) {
	byLayer := map[string][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		s.id, s.parent = i, -1
		byLayer[s.layer] = append(byLayer[s.layer], s)
	}
	for _, ss := range byLayer {
		sort.Slice(ss, func(a, b int) bool { return ss[a].start < ss[b].start })
	}
	byReq := func(layer string) map[int64]*span {
		m := map[int64]*span{}
		for _, s := range byLayer[layer] {
			if s.req >= 0 {
				m[s.req] = s
			}
		}
		return m
	}
	routers, serves := byReq(layerRouter), byReq(layerServe)
	claimed := map[*span]bool{}
	coreClaims := map[*span][]bool{}
	// inside calls f on the layer's spans that lie within outer, in order.
	inside := func(layer string, outer *span, f func(*span) bool) {
		ss := byLayer[layer]
		for i := sort.Search(len(ss), func(i int) bool { return ss[i].start >= outer.start }); i < len(ss) && ss[i].start <= outer.end; i++ {
			if ss[i].end <= outer.end && !f(ss[i]) {
				return
			}
		}
	}
	for _, c := range byLayer[layerClient] {
		j := joined{client: c}
		outer := c
		if r := routers[c.req]; r != nil {
			j.router, r.parent, outer = r, c.id, r
			inside(layerServe, r, func(s *span) bool {
				if s.req < 0 && !claimed[s] {
					claimed[s] = true
					s.req, s.parent = c.req, r.id
					j.serve, j.attempts, j.serveNS = s, j.attempts+1, j.serveNS+s.end-s.start
				}
				return true
			})
		} else if s := serves[c.req]; s != nil {
			j.serve, j.attempts, j.serveNS, s.parent = s, 1, s.end-s.start, c.id
		}
		if j.serve != nil {
			outer = j.serve
		}
		inside(layerCore, outer, func(k *span) bool {
			if coreClaims[k] == nil {
				coreClaims[k] = make([]bool, len(k.entries))
			}
			for i, e := range k.entries {
				if e == c.entry && !coreClaims[k][i] {
					coreClaims[k][i] = true
					if k.parent < 0 {
						k.parent = outer.id
					}
					k.reqs = append(k.reqs, c.req)
					j.core = k
					return false
				}
			}
			return true
		})
		if j.core == nil || (j.serve == nil) != (len(byLayer[layerServe]) == 0) {
			unjoined++
			continue
		}
		reqs = append(reqs, j)
	}
	return reqs, unjoined
}

// traceFile is what -trace writes per workload: every span with the span
// that caused it, and the slices they were taken in.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Unjoined int         `json:"unjoined_requests"`
	Slices   []traceSlot `json:"slices"`
	Spans    []traceSpan `json:"spans"`
}

type traceSlot struct {
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Speed   float64 `json:"speed"`
}

type traceSpan struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1: a root (client) span, or a span of a failed request
	Layer   string  `json:"layer"`
	Req     int64   `json:"req"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Entry   *int    `json:"entry,omitempty"`   // client: pool entry requested
	Replica string  `json:"replica,omitempty"` // client: replica the router chose
	Batch   int     `json:"batch,omitempty"`   // core: instances in the scorer call
	Cached  int     `json:"cached,omitempty"`  // core: of those, how many came with a cached user state
	Reqs    []int64 `json:"reqs,omitempty"`    // core: every request the call served
}

func (t *tracer) write(dir, workload string, seed int64, unjoined int, slots []traceSlot) error {
	out := traceFile{Workload: workload, Seed: seed, Unjoined: unjoined, Slices: slots, Spans: make([]traceSpan, len(t.spans))}
	for i := range t.spans {
		s := &t.spans[i]
		ts := traceSpan{
			ID: s.id, Parent: s.parent, Layer: s.layer, Req: s.req,
			StartUS: float64(s.start) / 1e3, EndUS: float64(s.end) / 1e3,
			Replica: s.replica, Batch: len(s.entries), Cached: s.cached, Reqs: s.reqs,
		}
		if s.layer == layerClient {
			ts.Entry = &s.entry
		}
		out.Spans[i] = ts
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
