package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rerank"
)

// BatchConfig bounds the scoring pool that sits between the request
// frontends and the scorers. Every job reaches a worker the moment it is
// dispatched: a single request as a run of one, a RerankBatch envelope as its
// contiguous same-pin runs. Nothing waits for batch-mates — a batch is a loop
// over instances on one arena, so a shared pass scores no list faster.
type BatchConfig struct {
	// MaxBatch is the most instances of one envelope a single ScoreBatch call
	// may carry (default 16); longer same-pin runs are split.
	MaxBatch int
	// MaxWait is read by nothing: only the frozen bench/serving.go still sets it.
	MaxWait time.Duration
	// Workers is the number of scoring worker goroutines draining dispatched
	// runs (default max(2, GOMAXPROCS)).
	Workers int
}

// scoreJob is one resolved request on its way to a scorer: the tenant and
// route key it resolved under, the pin that serves it and the instance the
// pin's geometry validated. ctx is its scoring context, set once admitted.
// done is buffered so the worker's delivery never blocks on a departed
// waiter; ownsSlot marks jobs whose MaxInFlight slot must be released when
// scoring truly ends (single requests own one slot each; batch-envelope
// items share the envelope's slot, which the envelope path releases itself).
type scoreJob struct {
	tenant   string
	route    uint64
	pin      Pinned
	inst     *rerank.Instance
	ctx      context.Context
	done     chan scoreOutcome
	ownsSlot bool
	// key identifies this request's encoded user state in the engine's state
	// cache; hasKey is set only when the cache is enabled and the pinned
	// scorer can consume states (so workers never hash or look up in vain).
	key    StateKey
	hasKey bool
}

// diversifierNamer is the metric-labeling hook a weightless diversifier
// scorer (internal/diversify.Scorer) implements: the bare registry name
// ("mmr", "window", …) that labels its rapid_diversifier_* series.
type diversifierNamer interface{ DiversifierName() string }

// samePin reports whether two envelope items may share one ScoreBatch call:
// only the same scorer instance under the same version label, so a
// canary/candidate split or a mid-flight promote can never mix models inside
// one call. A user-supplied scorer whose dynamic type does not support ==
// (slice, map or func fields) shares with nobody rather than panicking in
// the comparison.
func samePin(a, b Pinned) bool {
	t := reflect.TypeOf(a.Scorer)
	return t != nil && t.Comparable() && a.Scorer == b.Scorer && a.Version == b.Version
}

// scorePool is the engine's bounded set of scoring workers behind one queue
// of dispatched runs. The Engine owns exactly one pool for its whole life;
// workers start lazily on first dispatch and stop when Close is called. An
// engine used without Close (short-lived tests) leaves the bounded worker
// pool parked, which is harmless.
type scorePool struct {
	e     *Engine
	queue chan []*scoreJob

	started, stopped sync.Once
	wg               sync.WaitGroup
}

// newScorePool sizes the queue so that a single request's dispatch never
// blocks: singles hold one MaxInFlight slot each, so at most MaxInFlight of
// them are queued or scoring. The rest is headroom for envelopes, which hold
// one slot but dispatch up to MaxBatchRequests runs.
func newScorePool(e *Engine) *scorePool {
	return &scorePool{e: e, queue: make(chan []*scoreJob, e.cfg.MaxInFlight+4*e.cfg.Batch.Workers+16)}
}

// dispatch hands one run — jobs on one pin, sharing one scoring context — to
// the workers. It is the only sender on the queue. An envelope of many runs
// can fill the queue behind a stuck scorer; the send therefore gives up when
// the run's context ends and finishes the undelivered jobs with the
// context's error, so each still gets exactly one outcome and an owned slot
// is released.
func (p *scorePool) dispatch(jobs []*scoreJob) {
	p.started.Do(func() {
		for i := 0; i < p.e.cfg.Batch.Workers; i++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for jobs := range p.queue {
					p.e.runBatch(jobs)
				}
			}()
		}
	})
	ctx := jobs[0].ctx
	select {
	case p.queue <- jobs:
	case <-ctx.Done():
		for _, j := range jobs {
			p.e.finish(j, scoreOutcome{err: ctx.Err()})
		}
	}
}

// close stops the workers once the queue drains. Called by Engine.Close
// after the frontends have stopped submitting.
func (p *scorePool) close() {
	p.stopped.Do(func() { close(p.queue) })
	p.wg.Wait()
}

// runBatch scores one dispatched batch on a worker goroutine: jobs whose
// context already ended finish early without scoring, fault injection runs
// per job, live jobs score in one pass, and results (or the batch-wide
// error) fan back to each job's waiter.
//
// The filtered slices are fresh allocations, never compactions of jobs:
// the batch path enqueues subslices of a jobs array it keeps ranging over
// to collect results, so writing into jobs' backing array here would race
// with the envelope path and shift its job pointers.
func (e *Engine) runBatch(jobs []*scoreJob) {
	live := make([]*scoreJob, 0, len(jobs))
	for _, j := range jobs {
		if err := j.ctx.Err(); err != nil {
			e.finish(j, scoreOutcome{err: err})
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	n := len(live)
	e.met.BatchSize.Observe(float64(n))
	e.met.Inflight.Add(float64(n))
	sstart := time.Now()
	// Fault injection counts as part of scoring: a request degraded by
	// BeforeScore still lands in the scoring histogram and the in-flight
	// gauge, exactly as it did when each request scored on its own goroutine.
	var faulted []*scoreJob
	var fouts []scoreOutcome
	pass := make([]*scoreJob, 0, len(live))
	for _, j := range live {
		if out := e.beforeScore(j); out.err != nil {
			faulted = append(faulted, j)
			fouts = append(fouts, out)
			continue
		}
		pass = append(pass, j)
	}
	var outs []scoreOutcome
	if len(pass) > 0 {
		outs = e.scoreJobs(pass)
		// The post-scoring fault seam runs inside the timing window: injected
		// response latency lands in the scoring histogram exactly as a truly
		// slow forward pass would.
		for i, j := range pass {
			outs[i] = e.afterScore(j, outs[i])
		}
	}
	elapsed := time.Since(sstart)
	for i := 0; i < n; i++ {
		// Observed to true completion: a deadline-abandoned pass still lands
		// its real latency here, which is what the tail of this histogram is
		// for. Every batched job shares the batch's wall-clock cost.
		e.met.Scoring.ObserveDuration(elapsed)
	}
	e.met.Inflight.Add(float64(-n))
	// Per-diversifier serving metrics: jobs pinned to a classic diversifier
	// version land in the rapid_diversifier_* family, labeled with the
	// registry name, so canary/shadow dashboards can compare heuristics
	// against model versions series-by-series.
	for i, j := range pass {
		dn, ok := j.pin.Scorer.(diversifierNamer)
		if !ok || outs[i].err != nil {
			continue
		}
		name := dn.DiversifierName()
		e.met.DivRequests.With(name).Inc()
		e.met.DivItems.With(name).Add(int64(j.inst.L()))
		e.met.DivLatency.With(name).ObserveDuration(elapsed)
	}
	for i, j := range faulted {
		e.finish(j, fouts[i])
	}
	for i, j := range pass {
		e.finish(j, outs[i])
	}
	e.shadowFanout(pass, outs)
}

// beforeScore runs the fault-injection seam for one job, recovering
// injected panics so they degrade only that job's response.
func (e *Engine) beforeScore(j *scoreJob) (out scoreOutcome) {
	f := e.Faults
	if f == nil {
		return scoreOutcome{}
	}
	defer func() {
		if p := recover(); p != nil {
			e.met.Panics.Inc()
			e.Log("engine: recovered scoring panic: %v", p)
			out = scoreOutcome{err: fmt.Errorf("scoring panic: %v", p), panicked: true}
		}
	}()
	if err := f.BeforeScore(j.ctx, j.inst); err != nil {
		return scoreOutcome{err: err}
	}
	return scoreOutcome{}
}

// afterScore runs the post-scoring fault seam for one successfully scored
// job, recovering injected panics so they degrade only that job's response.
// Jobs that already failed pass through untouched.
func (e *Engine) afterScore(j *scoreJob, in scoreOutcome) (out scoreOutcome) {
	out = in
	as, ok := e.Faults.(AfterScoreInjector)
	if !ok || in.err != nil {
		return out
	}
	defer func() {
		if p := recover(); p != nil {
			e.met.Panics.Inc()
			e.Log("engine: recovered post-scoring panic: %v", p)
			out = scoreOutcome{err: fmt.Errorf("post-scoring panic: %v", p), panicked: true}
		}
	}()
	if err := as.AfterScore(j.ctx, j.inst, out.scores); err != nil {
		return scoreOutcome{err: err}
	}
	return out
}

// scoreJobs produces one outcome per job. A single job scores under its own
// request context (full per-request cancellation); a multi-job batch scores
// through BatchScorer when available, under a context detached from the
// individual requests (one client disconnecting must not cancel its
// batch-mates) but bounded by the latest member deadline. Scorers without
// ScoreBatch fall back to a per-job loop.
func (e *Engine) scoreJobs(jobs []*scoreJob) (outs []scoreOutcome) {
	outs = make([]scoreOutcome, len(jobs))
	landed := 0
	defer func() {
		if p := recover(); p != nil {
			e.met.Panics.Inc()
			e.Log("engine: recovered scoring panic: %v", p)
			out := scoreOutcome{err: fmt.Errorf("scoring panic: %v", p), panicked: true}
			for i := landed; i < len(outs); i++ {
				outs[i] = out
			}
		}
	}()
	scorer := jobs[0].pin.Scorer
	if ss, ok := scorer.(StateScorer); ok && e.stateCache != nil {
		return e.scoreJobsStates(ss, jobs, outs, &landed)
	}
	if bs, ok := scorer.(BatchScorer); ok && len(jobs) > 1 {
		insts := make([]*rerank.Instance, len(jobs))
		for i, j := range jobs {
			insts[i] = j.inst
		}
		bctx, cancel := batchContext(jobs)
		res, err := bs.ScoreBatch(bctx, insts)
		cancel()
		if err == nil && len(res) != len(jobs) {
			err = fmt.Errorf("scorer %s returned %d score sets for %d instances", scorer.Name(), len(res), len(jobs))
		}
		if err != nil {
			for i := range outs {
				outs[i] = scoreOutcome{err: err}
			}
		} else {
			for i := range outs {
				outs[i] = scoreOutcome{scores: res[i]}
			}
		}
		landed = len(outs)
		return outs
	}
	for i, j := range jobs {
		scores, err := scorer.Score(j.ctx, j.inst)
		outs[i] = scoreOutcome{scores: scores, err: err}
		landed = i + 1
	}
	return outs
}

// scoreJobsStates is the repeat-user fast path: jobs carrying a state-cache
// key look up their encoded user state first, and the batch scores through
// ScoreBatchStates so hits skip the preference pass entirely. Fresh states
// come back from the same call and are installed for the next request — the
// cache fills from scoring work the engine already paid for, never from
// extra encoding passes. Runs for single jobs too (under the job's own
// request context, preserving per-request cancellation); a batch uses the
// detached latest-deadline context like the plain batch path.
//
// Called under scoreJobs's recover, with its outs/landed so a scorer panic
// degrades the jobs exactly as on the uncached path.
func (e *Engine) scoreJobsStates(ss StateScorer, jobs []*scoreJob, outs []scoreOutcome, landed *int) []scoreOutcome {
	insts := make([]*rerank.Instance, len(jobs))
	states := make([]*core.UserState, len(jobs))
	for i, j := range jobs {
		insts[i] = j.inst
		if j.hasKey {
			states[i], _ = e.stateCache.Get(j.key)
		}
	}
	bctx, cancel := jobs[0].ctx, func() {}
	if len(jobs) > 1 {
		bctx, cancel = batchContext(jobs)
	}
	res, used, err := ss.ScoreBatchStates(bctx, insts, states)
	cancel()
	if err == nil && len(res) != len(jobs) {
		err = fmt.Errorf("scorer %s returned %d score sets for %d instances", ss.Name(), len(res), len(jobs))
	}
	if err != nil {
		for i := range outs {
			outs[i] = scoreOutcome{err: err}
		}
	} else {
		for i := range outs {
			outs[i] = scoreOutcome{scores: res[i]}
		}
		// Install only fresh misses: a hit's entry is already resident (Get
		// bumped its recency), and used is nil for diversity-free models,
		// which have no state worth caching.
		for i, j := range jobs {
			if j.hasKey && states[i] == nil && i < len(used) && used[i] != nil {
				e.stateCache.Put(j.key, used[i])
			}
		}
	}
	*landed = len(outs)
	return outs
}

// batchContext derives the shared scoring context for a multi-request
// batch: the latest member deadline, or no deadline if any member has none.
func batchContext(jobs []*scoreJob) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, j := range jobs {
		d, ok := j.ctx.Deadline()
		if !ok {
			return context.WithCancel(context.Background())
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// finish delivers a job's outcome and releases its scoring slot if it owns
// one. Exactly one finish per job: the buffered done channel makes delivery
// non-blocking even when the waiter already gave up on its deadline.
func (e *Engine) finish(j *scoreJob, out scoreOutcome) {
	j.done <- out
	if j.ownsSlot {
		<-e.sem
	}
}

// shadowFanout forwards successfully scored jobs to their pins' shadow
// hooks, grouping contiguous runs that shadow the same candidate version so
// shadow scoring reuses the batch shape instead of re-splitting per item.
func (e *Engine) shadowFanout(jobs []*scoreJob, outs []scoreOutcome) {
	for i := 0; i < len(jobs); {
		j := jobs[i]
		if j.pin.ShadowBatch == nil || outs[i].err != nil {
			i++
			continue
		}
		insts := []*rerank.Instance{j.inst}
		scores := [][]float64{outs[i].scores}
		k := i + 1
		for k < len(jobs) && jobs[k].pin.ShadowBatch != nil && outs[k].err == nil &&
			jobs[k].pin.ShadowVersion == j.pin.ShadowVersion {
			insts = append(insts, jobs[k].inst)
			scores = append(scores, outs[k].scores)
			k++
		}
		// Off-path shadow scoring: submit and move on; the shadow pool sheds
		// under pressure rather than delaying responses.
		j.pin.ShadowBatch(insts, scores)
		i = k
	}
}
