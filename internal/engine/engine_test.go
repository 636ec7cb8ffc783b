package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rerank"
)

func testConfig() core.Config {
	return core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2,
		Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
}

func validRequest() *Request {
	return &Request{
		UserFeatures: []float64{0.1, 0.2, 0.3},
		Items: []Item{
			{ID: 7, Features: []float64{0.5, 0.1}, Cover: []float64{1, 0}, InitScore: 0.9},
			{ID: 8, Features: []float64{0.2, 0.7}, Cover: []float64{0, 1}, InitScore: 0.4},
			{ID: 9, Features: []float64{0.3, 0.3}, Cover: []float64{1, 0}, InitScore: 0.2},
		},
		TopicSequences: [][]SeqItem{
			{{Features: []float64{0.5, 0.2}}},
			{},
		},
	}
}

// stubScorer echoes the initial scores: fast and deterministic for tests
// that exercise the engine envelope rather than model quality.
type stubScorer struct{}

func (stubScorer) Name() string { return "stub" }
func (stubScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return inst.InitScores, nil
}

func stubEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := NewStatic(stubScorer{}, Manifest{Dataset: "test", Config: testConfig()}, cfg)
	e.Log = t.Logf
	return e
}

// offsetStub is a Scorer whose output encodes which scorer produced it, so an
// item scored by a foreign pin would be visible in the scores themselves.
type offsetStub struct{ offset float64 }

func (o offsetStub) Name() string { return fmt.Sprintf("offset-%v", o.offset) }
func (o offsetStub) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	out := make([]float64, len(inst.Items))
	for i := range out {
		out[i] = o.offset + inst.InitScores[i]
	}
	return out, nil
}

// funcScorer's func field makes its dynamic type non-comparable: comparing
// two of them with == would panic at runtime.
type funcScorer struct {
	fn func(*rerank.Instance) []float64
}

func (f funcScorer) Name() string { return "func-scorer" }
func (f funcScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return f.fn(inst), nil
}

// parityProvider serves even user keys from pins[0] and odd ones from
// pins[1]: a 50 % canary whose side a test can choose per request.
type parityProvider struct{ pins [2]Pinned }

func (p parityProvider) Active() Pinned          { return p.pins[0] }
func (p parityProvider) Pick(user uint64) Pinned { return p.pins[user%2] }

// requestOnPin is validRequest with its first user feature moved until the
// user key lands on the given side of a parityProvider; distinct salts give
// distinct users.
func requestOnPin(side uint64, salt int) *Request {
	req := validRequest()
	for u := 1000 * (salt + 1); ; u++ {
		req.UserFeatures[0] = float64(u)
		if UserKey(req)%2 == side {
			return req
		}
	}
}

// alternatingEnvelope is n requests whose pins alternate item by item.
func alternatingEnvelope(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = *requestOnPin(uint64(i%2), i)
	}
	return reqs
}

// twoPinEngine serves a and b from the two sides of a parityProvider under
// the version labels v0 and v1.
func twoPinEngine(t *testing.T, a, b Scorer, cfg Config) *Engine {
	t.Helper()
	man := Manifest{Dataset: "test", Config: testConfig()}
	e := New(parityProvider{pins: [2]Pinned{
		{Scorer: a, Manifest: man, Version: "v0"},
		{Scorer: b, Manifest: man, Version: "v1"},
	}}, cfg)
	e.Log = t.Logf
	return e
}

// churn drives singles and alternating-pin envelopes from 8 goroutines at
// once (run with -race) against scorers that add 100 on side 0 and 200 on
// side 1. Every request must get exactly one answer, labelled with its own
// pin's version and carrying its own pin's offset — an item scored by its
// neighbour's pin or a dropped delivery would fail here — and once the pool
// has drained no scoring slot may be left held or have been released twice.
func churn(t *testing.T, e *Engine) {
	t.Helper()
	top := validRequest().Items[0].InitScore
	check := func(resp Response, side int) {
		if resp.Error != "" || resp.Degraded {
			t.Errorf("side %d: %+v", side, resp)
			return
		}
		if want := fmt.Sprintf("v%d", side); resp.ModelVersion != want {
			t.Errorf("side %d answered by %q", side, resp.ModelVersion)
		}
		if want := 100*float64(1+side) + top; resp.Scores[0] != want {
			t.Errorf("side %d: top score %v, want %v: a foreign pin scored it", side, resp.Scores[0], want)
		}
	}
	const goroutines, rounds, envelope = 8, 40, 6
	var answered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (g+i)%2 == 0 {
					side := (g + i/2) % 2
					resp, err := e.Rerank(context.Background(), requestOnPin(uint64(side), g*rounds+i))
					if err != nil {
						t.Errorf("goroutine %d single %d: %v", g, i, err)
						return
					}
					check(resp, side)
					answered.Add(1)
					continue
				}
				resps, err := e.RerankBatch(context.Background(), alternatingEnvelope(envelope))
				if err != nil || len(resps) != envelope {
					t.Errorf("goroutine %d envelope %d: %d responses, %v", g, i, len(resps), err)
					return
				}
				for k, resp := range resps {
					check(resp, k%2)
				}
				answered.Add(envelope)
			}
		}(g)
	}
	wg.Wait()
	if want := int64(goroutines * rounds / 2 * (1 + envelope)); answered.Load() != want {
		t.Fatalf("%d of %d requests answered", answered.Load(), want)
	}
	e.Close() // returns only when no worker is stuck on a slot that was never held
	if got := len(e.sem); got != 0 {
		t.Fatalf("%d slots still held after the pool drained", got)
	}
}

// TestCoalescerChurnExactlyOneOutcome is the scoring pool's property test:
// see churn.
func TestCoalescerChurnExactlyOneOutcome(t *testing.T) {
	churn(t, twoPinEngine(t, offsetStub{offset: 100}, offsetStub{offset: 200},
		Config{MaxInFlight: 64, QueueWait: 5 * time.Second}))
}

// TestNonComparableScorerCoalescePath: two pins whose scorers share a dynamic
// type that does not support == must serve an envelope — the engine never
// compares pins, and a == on these would panic and take the envelope down.
// The frontend-visible fallback lives in internal/serve's tests.
func TestNonComparableScorerCoalescePath(t *testing.T) {
	adding := func(offset float64) funcScorer {
		return funcScorer{fn: func(inst *rerank.Instance) []float64 {
			s, _ := offsetStub{offset: offset}.Score(context.Background(), inst)
			return s
		}}
	}
	churn(t, twoPinEngine(t, adding(100), adding(200),
		Config{MaxInFlight: 64, QueueWait: 5 * time.Second}))
}

// TestRerankNeverWaitsForBatchMates: with other requests in flight (two
// slots held), a lone request still goes straight to a worker. Scoring a
// three-item list takes microseconds, so the fastest of a handful of
// requests is far below any gathering window: the 2 ms one this engine used
// to have put every one of them above it.
func TestRerankNeverWaitsForBatchMates(t *testing.T) {
	e := stubEngine(t, Config{MaxInFlight: 16})
	defer e.Close()
	e.sem <- struct{}{}
	e.sem <- struct{}{}
	fastest := time.Hour
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := e.Rerank(context.Background(), validRequest()); err != nil {
			t.Fatal(err)
		}
		fastest = min(fastest, time.Since(start))
	}
	if fastest > time.Millisecond {
		t.Fatalf("the fastest of 20 lone requests took %v: something made it wait", fastest)
	}
}

// TestRerankAllocCeiling bounds what one request costs on the single path
// end to end — resolve, admission, dispatch, a scoring pass, response — on a
// request of the benchmark pool's shape against the real model with the
// state cache on: 19 allocations for a repeat user whose state is cached, 21
// for a new user each call (its θ̂ and state), 7 of them the instance. The
// benchmark bounds allocs_per_list to 6 %, and the stages Rerank shares with
// RerankBatch must not be paid for here. The ceilings only move down.
func TestRerankAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	cfg := core.DefaultConfig(13, 8, 5, 1)
	e := NewStatic(core.New(cfg), Manifest{Dataset: "test", Config: cfg}, Config{StateCacheBytes: 1 << 20})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	repeat := poolShapedRequest(rng)
	fresh := make([]*Request, 201) // AllocsPerRun's warm-up call and 200 more
	for i := range fresh {
		fresh[i] = poolShapedRequest(rng)
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		next    func() *Request
	}{
		{"repeat user", 19, func() *Request { return repeat }},
		{"new user each call", 21, func() *Request {
			req := fresh[0]
			fresh = fresh[1:]
			return req
		}},
	} {
		n := testing.AllocsPerRun(200, func() {
			if resp, err := e.Rerank(context.Background(), tc.next()); err != nil || resp.Degraded {
				t.Fatalf("%+v, %v", resp, err)
			}
		})
		t.Logf("%s: %v allocations", tc.name, n)
		if n > tc.ceiling {
			t.Errorf("Rerank, %s: %v allocations per pool-shaped request, ceiling %v", tc.name, n, tc.ceiling)
		}
	}
}

// scriptedScorer runs whatever the test scripted as the scoring pass.
type scriptedScorer struct {
	score func(ctx context.Context, inst *rerank.Instance) ([]float64, error)
}

func (s *scriptedScorer) Name() string { return "scripted" }
func (s *scriptedScorer) Score(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
	return s.score(ctx, inst)
}

// TestEnvelopeDispatchHonoursBudget: a full envelope is 64 jobs, far more
// than two stuck workers and the pool's queue (1 + 4·2 + 16) can take.
// Handing the jobs over must give up with the budget like every other wait
// on the request path: the envelope answers in time, every item degraded,
// and holds no slot afterwards.
func TestEnvelopeDispatchHonoursBudget(t *testing.T) {
	const budget = 50 * time.Millisecond
	release := make(chan struct{})
	stuck := &scriptedScorer{score: func(_ context.Context, inst *rerank.Instance) ([]float64, error) {
		<-release // ignores its context: returns only once released
		return inst.InitScores, nil
	}}
	e := twoPinEngine(t, stuck, stuck, Config{
		MaxInFlight: 1, Budget: budget, Batch: BatchConfig{Workers: 2},
	})
	type answer struct {
		resps []Response
		err   error
		took  time.Duration
	}
	answered := make(chan answer, 1)
	go func() {
		start := time.Now()
		resps, err := e.RerankBatch(context.Background(), alternatingEnvelope(MaxBatchRequests))
		answered <- answer{resps, err, time.Since(start)}
	}()
	select {
	case a := <-answered:
		if a.err != nil || len(a.resps) != MaxBatchRequests {
			t.Fatalf("%d responses, %v", len(a.resps), a.err)
		}
		for i, resp := range a.resps {
			if !resp.Degraded || resp.DegradedReason != "deadline" {
				t.Fatalf("item %d: %+v, want degraded on deadline", i, resp)
			}
		}
		t.Logf("answered in %v on a %v budget", a.took, budget)
	case <-time.After(budget + 2*time.Second):
		t.Error("RerankBatch still blocked 2 s past its budget")
	}
	close(release)
	e.Close()
	if got := len(e.sem); got != 0 {
		t.Fatalf("%d slots held after the scorer was released", got)
	}
}

// scriptedStateScorer is scriptedScorer taken for a StateScorer, as
// *core.Model is: with the state cache on, the engine scores through
// ScoreBatchStates.
type scriptedStateScorer struct{ scriptedScorer }

func (s *scriptedStateScorer) ScoreBatchStates(ctx context.Context, insts []*rerank.Instance, _ []*core.UserState) ([][]float64, []*core.UserState, error) {
	out := make([][]float64, len(insts))
	for i, inst := range insts {
		var err error
		if out[i], err = s.score(ctx, inst); err != nil {
			return nil, nil, err
		}
	}
	return out, nil, nil
}

// TestEnvelopeCancelReachesScorer: when an envelope's caller leaves, the
// scorers working on its items must see the cancel — RerankBatch answers
// ErrCanceled at once, and its slot stays held until the last scorer ends, so
// a scorer that kept running would hold a slot no caller is waiting on. On
// the state-cache path, the one production traffic takes.
func TestEnvelopeCancelReachesScorer(t *testing.T) {
	const giveUp = 2 * time.Second
	saw := make(chan error, 2)
	waits := &scriptedStateScorer{scriptedScorer{score: func(ctx context.Context, _ *rerank.Instance) ([]float64, error) {
		select {
		case <-ctx.Done():
			saw <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(giveUp):
			saw <- nil
			return nil, errors.New("never canceled")
		}
	}}}
	e := NewStatic(waits, Manifest{Dataset: "test", Config: testConfig()},
		Config{Budget: time.Minute, StateCacheBytes: 1 << 20})
	e.Log = t.Logf
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := e.RerankBatch(ctx, []Request{*validRequest(), *validRequest()}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RerankBatch: %v, want ErrCanceled", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-saw; !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d: the scorer ran its full %v and saw %v, want context.Canceled", i, giveUp, err)
		}
	}
	e.Close()
	if got := len(e.sem); got != 0 {
		t.Fatalf("%d slots held after the envelope was canceled", got)
	}
}

// TestEnvelopeItemsScoreConcurrently: the items of one envelope, same pin or
// not, score on as many workers as are free. The scorer answers only once two
// calls are in flight, so an envelope scored one item after another degrades
// both on the deadline.
func TestEnvelopeItemsScoreConcurrently(t *testing.T) {
	var inFlight atomic.Int32
	both := make(chan struct{})
	pair := &scriptedScorer{score: func(ctx context.Context, inst *rerank.Instance) ([]float64, error) {
		if inFlight.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return inst.InitScores, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	e := NewStatic(pair, Manifest{Dataset: "test", Config: testConfig()},
		Config{Budget: 500 * time.Millisecond, Batch: BatchConfig{Workers: 2}})
	e.Log = t.Logf
	defer e.Close()
	resps, err := e.RerankBatch(context.Background(), []Request{*validRequest(), *validRequest()})
	if err != nil || len(resps) != 2 {
		t.Fatalf("%d responses, %v", len(resps), err)
	}
	for i, resp := range resps {
		if resp.Degraded || resp.Error != "" {
			t.Fatalf("item %d: %+v: the two items never scored at the same time", i, resp)
		}
	}
}

// TestEnvelopeOverrunHoldsSlot: an envelope that overruns its budget answers
// degraded on time, but its MaxInFlight slot stays held until its scorer
// truly ends, as a single request's does — the scorer still occupies a
// worker and CPU after the caller has its answer.
func TestEnvelopeOverrunHoldsSlot(t *testing.T) {
	const budget = 20 * time.Millisecond
	release := make(chan struct{})
	stuck := &scriptedScorer{score: func(_ context.Context, inst *rerank.Instance) ([]float64, error) {
		<-release // ignores its context: returns only once released
		return inst.InitScores, nil
	}}
	e := NewStatic(stuck, Manifest{Dataset: "test", Config: testConfig()},
		Config{MaxInFlight: 1, Budget: budget})
	e.Log = t.Logf
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // on any exit: no scorer stays stuck
	start := time.Now()
	resps, err := e.RerankBatch(context.Background(), []Request{*validRequest(), *validRequest()})
	if err != nil || len(resps) != 2 {
		t.Fatalf("%d responses, %v", len(resps), err)
	}
	for i, resp := range resps {
		if !resp.Degraded || resp.DegradedReason != "deadline" {
			t.Fatalf("item %d: %+v, want degraded on deadline", i, resp)
		}
	}
	if took := time.Since(start); took > budget+time.Second {
		t.Fatalf("answered in %v on a %v budget", took, budget)
	}
	if got := len(e.sem); got != 1 {
		t.Fatalf("%d slots held while the envelope's scorers still run, want 1", got)
	}
	unblock()
	e.Close()
	if got := len(e.sem); got != 0 {
		t.Fatalf("%d slots held after the scorers ended", got)
	}
}

// tenantSource serves each named tenant from its own provider.
type tenantSource map[string]Provider

func (s tenantSource) Tenant(name string) (Provider, error) {
	if p, ok := s[name]; ok {
		return p, nil
	}
	return nil, errors.New("no such tenant")
}

// TestTenantQuota holds both entry points to one admission rule under
// TenantMaxInFlight 1: a call takes one quota slot per distinct tenant among
// its items, a request whose tenant is saturated is shed with tenant_quota —
// a *ShedError from Rerank, the item's Error in an envelope, its batch-mates
// of other tenants still scored — and the slot frees only when the call's
// last scorer ends, not when the call returns.
func TestTenantQuota(t *testing.T) {
	const budget = 20 * time.Millisecond
	tokens := make(chan struct{}, 4) // one per default-tenant scoring pass allowed to end
	gated := &scriptedScorer{score: func(_ context.Context, inst *rerank.Instance) ([]float64, error) {
		<-tokens
		return inst.InitScores, nil
	}}
	man := Manifest{Dataset: "test", Config: testConfig()}
	e := NewStatic(gated, man, Config{
		MaxInFlight: 4, Budget: budget, TenantMaxInFlight: 1, Batch: BatchConfig{Workers: 4},
		Tenants: tenantSource{"acme": StaticProvider(Pinned{Scorer: stubScorer{}, Manifest: man})},
	})
	e.Log = t.Logf
	defer e.Close()
	defer close(tokens) // first, on any exit: no scorer stays stuck for Close
	acme := *validRequest()
	acme.Tenant = "acme"
	quota := func() int {
		e.tenantMu.Lock()
		defer e.tenantMu.Unlock()
		return len(e.tenantSems[defaultTenant])
	}
	freed := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); quota() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("default tenant's quota still held 2 s after %s's scorers ended", what)
			}
		}
	}
	wantShed := func(what string, err error) {
		t.Helper()
		var se *ShedError
		if !errors.As(err, &se) || se.Reason != shedTenantQuota || se.RetryAfterS < 1 {
			t.Fatalf("%s: %v, want a tenant_quota shed with a retry hint", what, err)
		}
	}
	wantItemShed := func(what string, resp Response) {
		t.Helper()
		if !strings.Contains(resp.Error, shedTenantQuota) || len(resp.Ranked) != 0 {
			t.Fatalf("%s: %+v, want a tenant_quota error and no ranking", what, resp)
		}
	}

	// A single request that overruns keeps its tenant's slot until its scorer
	// ends.
	if resp, err := e.Rerank(context.Background(), validRequest()); err != nil || resp.DegradedReason != "deadline" {
		t.Fatalf("first single: %+v, %v; want degraded on deadline", resp, err)
	}
	if got := quota(); got != 1 {
		t.Fatalf("quota slots held while the single's scorer runs: %d, want 1", got)
	}
	_, err := e.Rerank(context.Background(), validRequest())
	wantShed("second single", err)
	// Mixed traffic: the saturated tenant's items are shed, another tenant's
	// item in the same envelope still scores.
	resps, err := e.RerankBatch(context.Background(), []Request{*validRequest(), acme, *validRequest()})
	if err != nil || len(resps) != 3 {
		t.Fatalf("mixed envelope: %d responses, %v", len(resps), err)
	}
	wantItemShed("mixed envelope item 0", resps[0])
	wantItemShed("mixed envelope item 2", resps[2])
	if resps[1].Error != "" || resps[1].Degraded {
		t.Fatalf("acme's item: %+v, want scored", resps[1])
	}
	tokens <- struct{}{}
	freed("the single")

	// An envelope takes one slot for its tenant, however many items it
	// carries, and keeps it until its last scorer ends.
	resps, err = e.RerankBatch(context.Background(), []Request{*validRequest(), *validRequest()})
	if err != nil || len(resps) != 2 || resps[0].DegradedReason != "deadline" || resps[1].DegradedReason != "deadline" {
		t.Fatalf("envelope: %+v, %v; want two items degraded on deadline", resps, err)
	}
	if got := quota(); got != 1 {
		t.Fatalf("quota slots held while the envelope's scorers run: %d, want 1", got)
	}
	_, err = e.Rerank(context.Background(), validRequest())
	wantShed("single behind the envelope", err)
	tokens <- struct{}{}
	if got := quota(); got != 1 {
		t.Fatalf("quota slots held while one of the envelope's scorers runs: %d, want 1", got)
	}
	tokens <- struct{}{}
	freed("the envelope")
	tokens <- struct{}{}
	if resp, err := e.Rerank(context.Background(), validRequest()); err != nil || resp.Degraded {
		t.Fatalf("single after the quota freed: %+v, %v", resp, err)
	}

	if got := e.met.Shed.With(shedTenantQuota).Value(); got != 4 {
		t.Fatalf("rapid_shed_total{reason=tenant_quota} = %d, want 4", got)
	}
	if got := e.met.TenantShed.With(defaultTenant).Value(); got != 4 {
		t.Fatalf("rapid_tenant_shed_total{tenant=default} = %d, want 4", got)
	}
	if got := e.met.TenantShed.With("acme").Value(); got != 0 {
		t.Fatalf("rapid_tenant_shed_total{tenant=acme} = %d, want 0", got)
	}
	if got := e.met.Responses.With("shed").Value(); got != 2 {
		t.Fatalf("rapid_http_responses_total{status=shed} = %d, want 2: the singles, not the envelope", got)
	}
}

// TestAwaitRule holds Rerank and RerankBatch to one reading of how a request
// ends. Only a cancel of the caller's context is a departed caller
// (ErrCanceled, nothing built); a deadline — the engine's budget or the
// caller's own, seen first by the scorer or first by the engine — degrades
// with reason "deadline", as a scoring error and a scoring panic degrade
// with theirs.
func TestAwaitRule(t *testing.T) {
	type scoreFunc = func(context.Context, *rerank.Instance) ([]float64, error)
	var release chan struct{} // closed as each subtest ends
	untilDone := func(ctx context.Context, _ *rerank.Instance) ([]float64, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	untilReleased := func(_ context.Context, inst *rerank.Instance) ([]float64, error) {
		<-release
		return inst.InitScores, nil
	}
	ownDeadline := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 20*time.Millisecond)
	}
	cases := []struct {
		name     string
		budget   time.Duration
		caller   func() (context.Context, context.CancelFunc) // nil: context.Background
		score    scoreFunc
		canceled bool
		reason   string
	}{
		{name: "caller cancel", budget: time.Minute, score: untilDone, canceled: true,
			caller: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(20*time.Millisecond, cancel)
				return ctx, cancel
			}},
		{name: "caller deadline, scorer honours it", budget: time.Minute, caller: ownDeadline,
			score: untilDone, reason: "deadline"},
		{name: "caller deadline, scorer ignores it", budget: time.Minute, caller: ownDeadline,
			score: untilReleased, reason: "deadline"},
		{name: "budget overrun", budget: 20 * time.Millisecond, score: untilDone, reason: "deadline"},
		{name: "scorer error", budget: time.Minute, reason: "error",
			score: func(context.Context, *rerank.Instance) ([]float64, error) {
				return nil, errors.New("feature store down")
			}},
		{name: "scorer panic", budget: time.Minute, reason: "panic",
			score: func(context.Context, *rerank.Instance) ([]float64, error) { panic("index out of range") }},
	}
	entries := map[string]func(*Engine, context.Context) ([]Response, error){
		"Rerank": func(e *Engine, ctx context.Context) ([]Response, error) {
			resp, err := e.Rerank(ctx, validRequest())
			return []Response{resp}, err
		},
		"RerankBatch": func(e *Engine, ctx context.Context) ([]Response, error) {
			return e.RerankBatch(ctx, []Request{*validRequest(), *validRequest()})
		},
	}
	for _, tc := range cases {
		for entry, call := range entries {
			t.Run(tc.name+"/"+entry, func(t *testing.T) {
				release = make(chan struct{})
				e := NewStatic(&scriptedScorer{score: tc.score},
					Manifest{Dataset: "test", Config: testConfig()}, Config{Budget: tc.budget})
				e.Log = t.Logf
				defer e.Close() // after the release below: waits for the worker
				defer close(release)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if tc.caller != nil {
					ctx, cancel = tc.caller()
				}
				defer cancel()
				resps, err := call(e, ctx)
				if tc.canceled {
					if !errors.Is(err, ErrCanceled) {
						t.Fatalf("got %+v, %v; want ErrCanceled", resps, err)
					}
					if got := e.met.Responses.With("canceled").Value(); got != 1 {
						t.Fatalf("canceled counted %d times, want once", got)
					}
					return
				}
				if err != nil {
					t.Fatalf("%v; want a response degraded on %s", err, tc.reason)
				}
				for i, resp := range resps {
					if !resp.Degraded || resp.DegradedReason != tc.reason || resp.RequestID == "" {
						t.Fatalf("item %d: %+v, want degraded on %s", i, resp, tc.reason)
					}
				}
				if got := e.met.Degraded.With(tc.reason).Value(); got != int64(len(resps)) {
					t.Fatalf("degraded{%s} = %d, want %d", tc.reason, got, len(resps))
				}
			})
		}
	}
}

// TestRetryAfterDerivedFromPressure: the Retry-After hint scales with
// semaphore occupancy — idle engines hint a short retry, saturated engines
// back retries off harder.
func TestRetryAfterDerivedFromPressure(t *testing.T) {
	e := stubEngine(t, Config{MaxInFlight: 4})
	for i := 0; i < 50; i++ {
		sec := e.RetryAfterS()
		if sec < 1 {
			t.Fatalf("idle Retry-After %d", sec)
		}
		if sec > 2 { // base 1 ± 1s jitter
			t.Fatalf("idle Retry-After %d too far out", sec)
		}
	}
	// Saturated engine: the base rises to 4, so even the lowest jitter
	// stays above the idle hint — retries back off harder when pressure is
	// real.
	for i := 0; i < 4; i++ {
		e.sem <- struct{}{}
	}
	for i := 0; i < 50; i++ {
		if sec := e.RetryAfterS(); sec < 3 || sec > 5 {
			t.Fatalf("saturated Retry-After %d, want 3..5", sec)
		}
	}
}

// stateOfSize builds a UserState over the given number of topics; its
// SizeBytes is 8·topics plus core's fixed per-entry overhead.
func stateOfSize(topics int) *core.UserState {
	return core.NewUserState(make([]float64, topics))
}

// putSeen puts key's state twice: the first Put only shows the key to the
// doorkeeper, the second caches it.
func putSeen(c *StateCache, key stateKey, st *core.UserState) {
	c.put(key, st)
	c.put(key, st)
}

// TestStateCacheChargeMatchesHeap holds the budget to what it buys: the
// bytes a resident entry is charged (UserState.SizeBytes) must be within
// 25 % of the live heap the entry actually costs — state, θ̂, entry record,
// list element and map slot — so -state-cache-mb admits about that much
// memory and not a multiple of it.
func TestStateCacheChargeMatchesHeap(t *testing.T) {
	const n, topics = 20000, 5
	c := newStateCache(1<<40, newMetrics(obs.NewRegistry()))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		key := stateKey{Tenant: "default", History: uint64(i) * 2654435761, Version: "v1"}
		putSeen(c, key, stateOfSize(topics))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	entries, charged := c.Stats()
	if entries != n {
		t.Fatalf("%d entries resident, want %d", entries, n)
	}
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / n
	charge := float64(charged) / n
	t.Logf("an entry costs %.0f B of live heap and is charged %.0f B", perEntry, charge)
	if d := math.Abs(perEntry-charge) / charge; d > 0.25 {
		t.Fatalf("an entry costs %.0f B of live heap but is charged %.0f B (off by %.0f%%, want ≤ 25%%)", perEntry, charge, 100*d)
	}
	runtime.KeepAlive(c)
}

// TestStateCacheFoldCollision: the index is keyed by a 64-bit fold of the
// key, so a slot can hold another key's entry. That must read as a miss,
// never as the other key's state, and a Put must displace the squatter
// without leaking its charge.
func TestStateCacheFoldCollision(t *testing.T) {
	c := newStateCache(1<<20, newMetrics(obs.NewRegistry()))
	a := stateKey{Tenant: "t", History: 2, Version: "v1"}
	putSeen(c, a, stateOfSize(4))
	// Make the resident entry some other key that folded to a's slot.
	c.by[a.hash()].key = stateKey{Tenant: "t", History: 9, Version: "v1"}
	if _, ok := c.get(a); ok {
		t.Fatal("a slot holding another key's entry read as a hit")
	}
	mine := stateOfSize(4)
	c.put(a, mine)
	if got, ok := c.get(a); !ok || got != mine {
		t.Fatal("Put did not displace the entry squatting on its slot")
	}
	if n, b := c.Stats(); n != 1 || b != int64(mine.SizeBytes()) {
		t.Fatalf("after displacement: %d entries / %d bytes, want 1 / %d", n, b, mine.SizeBytes())
	}
}

// TestStateCacheLRU pins the cache's budget accounting: inserts beyond the
// byte budget evict in LRU order, a get refreshes recency, and replacing a
// key's entry adjusts bytes instead of double-charging.
func TestStateCacheLRU(t *testing.T) {
	one := int64(stateOfSize(4).SizeBytes())
	c := newStateCache(3*one, newMetrics(obs.NewRegistry())) // room for exactly three entries
	key := func(i int) stateKey { return stateKey{History: uint64(i), Version: "v1"} }
	for i := 0; i < 3; i++ {
		putSeen(c, key(i), stateOfSize(4))
	}
	if n, b := c.Stats(); n != 3 || b != 3*one {
		t.Fatalf("after 3 puts: %d entries / %d bytes, want 3 / %d", n, b, 3*one)
	}
	// Touch key 0 so key 1 is now the LRU victim.
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("resident entry missing")
	}
	putSeen(c, key(3), stateOfSize(4))
	if _, ok := c.get(key(1)); ok {
		t.Fatal("LRU victim survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.get(key(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	// Replacing a resident key must not double-charge the budget.
	c.put(key(0), stateOfSize(4))
	if n, b := c.Stats(); n != 3 || b != 3*one {
		t.Fatalf("after replace: %d entries / %d bytes, want 3 / %d", n, b, 3*one)
	}
	// An entry larger than the whole budget is refused outright.
	putSeen(c, stateKey{History: 99}, stateOfSize(1024))
	if _, ok := c.get(stateKey{History: 99}); ok {
		t.Fatal("over-budget state was admitted")
	}
	c.flush()
	if n, b := c.Stats(); n != 0 || b != 0 {
		t.Fatalf("after flush: %d entries / %d bytes", n, b)
	}
}

// TestStateCacheDoorkeeper: a key put once stays out of the cache (but for
// the doorkeeper's shared bits, a small share), a key put twice is
// resident, and flush forgets first sightings.
func TestStateCacheDoorkeeper(t *testing.T) {
	met := newMetrics(obs.NewRegistry())
	c := newStateCache(1<<40, met)
	const n = 100000
	for i := 0; i < n; i++ {
		c.put(stateKey{Tenant: "default", History: uint64(i) * 2654435761, Version: "v1"}, stateOfSize(5))
	}
	entries, _ := c.Stats()
	t.Logf("%d of %d keys put once are resident", entries, n)
	if share := float64(entries) / n; share > 0.06 {
		t.Fatalf("%.1f%% of keys put once are resident, want ≤ 6%%", 100*share)
	}
	if d := met.CacheDeferred.Value(); d != int64(n-entries) {
		t.Fatalf("deferred counter %d, want %d", d, n-entries)
	}

	c = newStateCache(1<<20, newMetrics(obs.NewRegistry()))
	once, twice := stateKey{History: 1, Version: "v1"}, stateKey{History: 2, Version: "v1"}
	c.put(twice, stateOfSize(4))
	if _, ok := c.get(twice); ok {
		t.Fatal("a first sighting was cached")
	}
	st := stateOfSize(4)
	c.put(twice, st)
	if got, ok := c.get(twice); !ok || got != st {
		t.Fatal("a key put twice is not resident")
	}
	c.put(once, stateOfSize(4))
	c.flush()
	c.put(once, stateOfSize(4))
	if _, ok := c.get(once); ok {
		t.Fatal("Flush kept a first sighting: the next Put cached the key")
	}
}

// TestRouteKeyDeterministicAndSensitive: the user key is who the user is —
// it follows the user features and nothing the slate carries.
func TestRouteKeyDeterministicAndSensitive(t *testing.T) {
	a := validRequest()
	b := validRequest()
	if UserKey(a) != UserKey(b) {
		t.Fatal("identical requests produced different user keys")
	}
	b.UserFeatures[0] += 0.5
	if UserKey(a) == UserKey(b) {
		t.Fatal("user key ignores user features")
	}
	c := validRequest()
	c.Items[0].ID = 99
	c.Items[1].Features[0] += 0.5
	c.Items = c.Items[:2]
	if UserKey(a) != UserKey(c) {
		t.Fatal("user key moved with the candidate slate")
	}
}

// TestHistoryKeyDiscriminates: the history hash must change whenever any
// encoder input changes — user features, sequence features, or which topic a
// behavior belongs to — and must be stable for identical requests.
func TestHistoryKeyDiscriminates(t *testing.T) {
	base := historyKey(validRequest())
	if base != historyKey(validRequest()) {
		t.Fatal("historyKey not deterministic")
	}
	user := validRequest()
	user.UserFeatures[0] += 0.5
	if historyKey(user) == base {
		t.Fatal("user-feature change did not change the key")
	}
	seq := validRequest()
	seq.TopicSequences[0][0].Features[1] += 0.5
	if historyKey(seq) == base {
		t.Fatal("sequence-feature change did not change the key")
	}
	moved := validRequest()
	moved.TopicSequences[0], moved.TopicSequences[1] = moved.TopicSequences[1], moved.TopicSequences[0]
	if historyKey(moved) == base {
		t.Fatal("moving a behavior to another topic did not change the key")
	}
	// Items are deliberately NOT part of the history hash: the candidate list
	// does not feed the user-preference encoder.
	items := validRequest()
	items.Items[0].Features[0] += 0.5
	if historyKey(items) != base {
		t.Fatal("candidate-item change leaked into the history key")
	}
}

// slate is validRequest's user and history with the n-th fresh candidate
// list: every item id, feature and initial score moves with n.
func slate(n int) *Request {
	req := validRequest()
	for i := range req.Items {
		it := &req.Items[i]
		it.ID = 100*n + i
		it.Features[0] += float64(n) / 8
		it.InitScore += float64(n) / 100
	}
	return req
}

// TestStateCacheHitsAcrossSlates: θ̂ is a function of the user and their
// history alone, so a returning user with a fresh slate hits the state cache
// — and the hit scores exactly what an engine without a cache scores.
func TestStateCacheHitsAcrossSlates(t *testing.T) {
	cfg := testConfig()
	m, man := core.New(cfg), Manifest{Dataset: "test", Config: cfg}
	cached := NewStatic(m, man, Config{StateCacheBytes: 1 << 20})
	defer cached.Close()
	for n := 0; n < 5; n++ {
		got, err := cached.Rerank(context.Background(), slate(n))
		if err != nil || got.Degraded {
			t.Fatalf("slate %d: %+v, %v", n, got, err)
		}
		// Slate 0 shows the user to the doorkeeper, slate 1 caches their
		// state, and every later slate hits it.
		if hits, want := cached.met.CacheHits.Value(), int64(max(n-1, 0)); hits != want {
			t.Fatalf("slate %d: %d state-cache hits, want %d", n, hits, want)
		}
		fresh := NewStatic(m, man, Config{})
		want, err := fresh.Rerank(context.Background(), slate(n))
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got.Scores, want.Scores) {
			t.Fatalf("slate %d: cached scores %v, cache-less %v", n, got.Scores, want.Scores)
		}
	}
}

// TestCanarySidePerUser: the canary split is per user. Under a 50 % split,
// every slate one user is shown is served by the same pin.
func TestCanarySidePerUser(t *testing.T) {
	e := twoPinEngine(t, offsetStub{offset: 100}, offsetStub{offset: 200}, Config{})
	defer e.Close()
	users := map[string]int{}
	for u := 0; u < 200; u++ {
		var side string
		for n := 0; n < 5; n++ {
			req := slate(n)
			req.UserFeatures[0] = float64(u)
			resp, err := e.Rerank(context.Background(), req)
			if err != nil || resp.Degraded {
				t.Fatalf("user %d slate %d: %+v, %v", u, n, resp, err)
			}
			if n == 0 {
				side = resp.ModelVersion
				users[side]++
			} else if resp.ModelVersion != side {
				t.Fatalf("user %d: slate %d served by %s, slate 0 by %s", u, n, resp.ModelVersion, side)
			}
		}
	}
	if users["v0"] == 0 || users["v1"] == 0 {
		t.Fatalf("the split put every user on one side: %v", users)
	}
}

// benchEngine is the serving shape the two benchmarks below measure: the real
// model at the benchmark pool's geometry behind an engine with the state cache
// on, and 16 pool-shaped requests.
func benchEngine(b *testing.B) (*Engine, []Request) {
	cfg := core.DefaultConfig(13, 8, 5, 1)
	e := NewStatic(core.New(cfg), Manifest{Dataset: "bench", Config: cfg}, Config{StateCacheBytes: 1 << 20})
	b.Cleanup(e.Close)
	rng := rand.New(rand.NewSource(1))
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = *poolShapedRequest(rng)
	}
	return e, reqs
}

// BenchmarkRerank is one request end to end on the single path, every user
// new to the state cache (flushed each time the 16 requests come round).
func BenchmarkRerank(b *testing.B) {
	e, reqs := benchEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(reqs) == 0 {
			e.FlushStateCache()
		}
		if resp, err := e.Rerank(ctx, &reqs[i%len(reqs)]); err != nil || resp.Degraded {
			b.Fatalf("%+v, %v", resp, err)
		}
	}
}

// BenchmarkRerankBatch16 is one envelope of 16 end to end, the state cache
// flushed per envelope: the committed yardstick for the envelope path, which
// no end-to-end benchmark workload drives.
func BenchmarkRerankBatch16(b *testing.B) {
	e, reqs := benchEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FlushStateCache()
		resps, err := e.RerankBatch(ctx, reqs)
		if err != nil || len(resps) != len(reqs) || resps[0].Degraded {
			b.Fatalf("%d responses, %v", len(resps), err)
		}
	}
}
