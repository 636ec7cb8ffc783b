package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
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

// offsetStub is a comparable Scorer+BatchScorer whose output encodes which
// scorer produced it, so a batch that mixed pins would be visible in the
// scores themselves.
type offsetStub struct{ offset float64 }

func (o offsetStub) Name() string { return fmt.Sprintf("offset-%v", o.offset) }
func (o offsetStub) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	out := make([]float64, len(inst.Items))
	for i := range out {
		out[i] = o.offset + inst.InitScores[i]
	}
	return out, nil
}
func (o offsetStub) ScoreBatch(ctx context.Context, insts []*rerank.Instance) ([][]float64, error) {
	out := make([][]float64, len(insts))
	for i, inst := range insts {
		s, err := o.Score(ctx, inst)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// funcScorer's func field makes its dynamic type non-comparable: using it
// in a batchKey (map key or ==) would panic at runtime.
type funcScorer struct {
	fn func(*rerank.Instance) []float64
}

func (f funcScorer) Name() string { return "func-scorer" }
func (f funcScorer) Score(_ context.Context, inst *rerank.Instance) ([]float64, error) {
	return f.fn(inst), nil
}

// TestCoalescerMaxWaitBound: with the engine busy (idle fast path
// defeated), a lone request dispatches when its MaxWait window closes —
// never sooner than the window, never later than window + slack.
func TestCoalescerMaxWaitBound(t *testing.T) {
	const maxWait = 20 * time.Millisecond
	e := stubEngine(t, Config{
		MaxInFlight: 16,
		Batch:       BatchConfig{MaxBatch: 16, MaxWait: maxWait},
	})
	// Two occupied slots defeat the idle fast path (len(sem) > 1).
	e.sem <- struct{}{}
	e.sem <- struct{}{}
	inst, err := ToInstance(testConfig(), validRequest())
	if err != nil {
		t.Fatal(err)
	}
	pin := Pinned{Scorer: offsetStub{offset: 1}, Version: "v1"}

	e.sem <- struct{}{} // the job's own slot, released by the worker
	start := time.Now()
	done := e.batch.submit(context.Background(), pin, inst)
	select {
	case out := <-done:
		elapsed := time.Since(start)
		if out.err != nil {
			t.Fatal(out.err)
		}
		if elapsed < maxWait/2 {
			t.Fatalf("partial batch dispatched after %v, before the %v wait window", elapsed, maxWait)
		}
		if elapsed > maxWait+time.Second {
			t.Fatalf("request waited %v, far past MaxWait %v", elapsed, maxWait)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request never completed")
	}
}

// TestCoalescerFullBatchDispatchesEarly: MaxBatch jobs in hand dispatch
// immediately — nobody waits out a long MaxWait window once the batch is
// full.
func TestCoalescerFullBatchDispatchesEarly(t *testing.T) {
	const batch = 4
	e := stubEngine(t, Config{
		MaxInFlight: 16,
		Batch:       BatchConfig{MaxBatch: batch, MaxWait: 5 * time.Second},
	})
	e.sem <- struct{}{}
	e.sem <- struct{}{}
	inst, err := ToInstance(testConfig(), validRequest())
	if err != nil {
		t.Fatal(err)
	}
	pin := Pinned{Scorer: offsetStub{offset: 1}, Version: "v1"}

	start := time.Now()
	dones := make([]<-chan scoreOutcome, batch)
	for i := range dones {
		e.sem <- struct{}{}
		dones[i] = e.batch.submit(context.Background(), pin, inst)
	}
	for i, done := range dones {
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatalf("job %d: %v", i, out.err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("job %d still waiting %v after the batch filled", i, time.Since(start))
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("full batch took %v; it must not wait out MaxWait", elapsed)
	}
}

// TestCoalescerChurnExactlyOneOutcome is the coalescer's property test; run
// with -race. Many goroutines submit against two distinct (scorer, version)
// pins at once. Every submission must receive exactly one outcome, and the
// scores must carry its own pin's offset — a batch that mixed pins or a
// dropped/duplicated delivery would fail here.
func TestCoalescerChurnExactlyOneOutcome(t *testing.T) {
	e := stubEngine(t, Config{
		MaxInFlight: 64,
		Batch:       BatchConfig{MaxBatch: 4, MaxWait: time.Millisecond},
	})
	// Keep the engine permanently "busy" so submissions coalesce.
	e.sem <- struct{}{}
	e.sem <- struct{}{}
	inst, err := ToInstance(testConfig(), validRequest())
	if err != nil {
		t.Fatal(err)
	}
	pins := []Pinned{
		{Scorer: offsetStub{offset: 100}, Version: "v1"},
		{Scorer: offsetStub{offset: 200}, Version: "v2"},
	}

	const (
		workers = 8
		perW    = 50
	)
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				pin := pins[(g+i)%len(pins)]
				e.sem <- struct{}{}
				done := e.batch.submit(context.Background(), pin, inst)
				select {
				case out := <-done:
					if out.err != nil {
						t.Errorf("worker %d job %d: %v", g, i, out.err)
						return
					}
					wantOffset := 100.0 * float64(1+(g+i)%len(pins))
					if out.scores[0] != wantOffset+inst.InitScores[0] {
						t.Errorf("pin mixed into foreign batch: got %v, want offset %v",
							out.scores[0], wantOffset)
						return
					}
					delivered.Add(1)
				case <-time.After(5 * time.Second):
					t.Errorf("worker %d job %d: outcome never delivered", g, i)
					return
				}
				// done is buffered with capacity 1; a duplicate delivery
				// would be waiting here.
				select {
				case out := <-done:
					t.Errorf("worker %d job %d: duplicate outcome %+v", g, i, out)
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
	if got := delivered.Load(); got != workers*perW {
		t.Fatalf("%d of %d submissions answered", got, workers*perW)
	}
	// The two sentinel tokens are all that remain once every job released
	// its slot: no slot was leaked or double-released.
	if got := len(e.sem); got != 2 {
		t.Fatalf("%d slots still held after drain, want the 2 sentinels", got)
	}
}

// TestNonComparableScorerCoalescePath: a scorer whose dynamic type does not
// support == must dispatch solo on the coalescing path (map keyed by
// scorer) instead of panicking. The frontend-visible fallback lives in
// internal/serve's tests; this pins the submit path proper.
func TestNonComparableScorerCoalescePath(t *testing.T) {
	fs := funcScorer{fn: func(inst *rerank.Instance) []float64 { return inst.InitScores }}
	e := NewStatic(fs, Manifest{Dataset: "test", Config: testConfig()}, Config{MaxInFlight: 16})
	e.Log = t.Logf
	e.sem <- struct{}{}
	e.sem <- struct{}{}
	inst, err := ToInstance(testConfig(), validRequest())
	if err != nil {
		t.Fatal(err)
	}
	e.sem <- struct{}{}
	done := e.batch.submit(context.Background(), Pinned{Scorer: fs, Version: "v1"}, inst)
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("coalesced submit with non-comparable scorer: %v", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("non-comparable scorer job never completed")
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

// TestStateCacheChargeMatchesHeap holds the budget to what it buys: the
// bytes a resident entry is charged (UserState.SizeBytes) must be within
// 25 % of the live heap the entry actually costs — state, θ̂, entry record,
// list element and map slot — so -state-cache-mb admits about that much
// memory and not a multiple of it.
func TestStateCacheChargeMatchesHeap(t *testing.T) {
	const n, topics = 20000, 5
	c := newStateCache(1<<40, NewMetrics(obs.NewRegistry()))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		key := StateKey{Tenant: "default", Route: uint64(i) * 2654435761, History: uint64(i) * 40503, Version: "v1"}
		c.Put(key, stateOfSize(topics))
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
	c := newStateCache(1<<20, NewMetrics(obs.NewRegistry()))
	a := StateKey{Tenant: "t", Route: 1, History: 2, Version: "v1"}
	c.Put(a, stateOfSize(4))
	// Make the resident entry some other key that folded to a's slot.
	c.by[a.hash()].key = StateKey{Tenant: "t", Route: 7, History: 9, Version: "v1"}
	if _, ok := c.Get(a); ok {
		t.Fatal("a slot holding another key's entry read as a hit")
	}
	mine := stateOfSize(4)
	c.Put(a, mine)
	if got, ok := c.Get(a); !ok || got != mine {
		t.Fatal("Put did not displace the entry squatting on its slot")
	}
	if n, b := c.Stats(); n != 1 || b != int64(mine.SizeBytes()) {
		t.Fatalf("after displacement: %d entries / %d bytes, want 1 / %d", n, b, mine.SizeBytes())
	}
}

// TestStateCacheLRU pins the cache's budget accounting: inserts beyond the
// byte budget evict in LRU order, a Get refreshes recency, and replacing a
// key's entry adjusts bytes instead of double-charging.
func TestStateCacheLRU(t *testing.T) {
	one := int64(stateOfSize(4).SizeBytes())
	c := newStateCache(3*one, NewMetrics(obs.NewRegistry())) // room for exactly three entries
	key := func(i int) StateKey { return StateKey{Route: uint64(i), Version: "v1"} }
	for i := 0; i < 3; i++ {
		c.Put(key(i), stateOfSize(4))
	}
	if n, b := c.Stats(); n != 3 || b != 3*one {
		t.Fatalf("after 3 puts: %d entries / %d bytes, want 3 / %d", n, b, 3*one)
	}
	// Touch key 0 so key 1 is now the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("resident entry missing")
	}
	c.Put(key(3), stateOfSize(4))
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("LRU victim survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	// Replacing a resident key must not double-charge the budget.
	c.Put(key(0), stateOfSize(4))
	if n, b := c.Stats(); n != 3 || b != 3*one {
		t.Fatalf("after replace: %d entries / %d bytes, want 3 / %d", n, b, 3*one)
	}
	// An entry larger than the whole budget is refused outright.
	c.Put(StateKey{Route: 99}, stateOfSize(1024))
	if _, ok := c.Get(StateKey{Route: 99}); ok {
		t.Fatal("over-budget state was admitted")
	}
	c.Flush()
	if n, b := c.Stats(); n != 0 || b != 0 {
		t.Fatalf("after flush: %d entries / %d bytes", n, b)
	}
}
