package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rerank"
)

// BatchConfig bounds the scoring pool that sits between the request
// frontends and the scorers. A scored list is the pool's only unit of work:
// a single request is one job, a RerankBatch envelope is one job per valid
// item, and every job reaches a worker the moment it is dispatched. Nothing
// in the model crosses lists, so a shared pass would score no list faster.
type BatchConfig struct {
	// MaxBatch and MaxWait are read by nothing: only the frozen
	// bench/serving.go still sets them (ROADMAP item 1 deletes both).
	MaxBatch int
	MaxWait  time.Duration
	// Workers is the number of scoring worker goroutines draining dispatched
	// jobs (default max(2, GOMAXPROCS)).
	Workers int
}

// scoreJob is one resolved request on its way to a scorer: the tenant and
// user key it resolved under, the pin that serves it and the instance the
// pin's geometry validated. ctx is its scoring context, set once admitted;
// idx is its request's position in the call, and call holds the slots it
// shares with its call-mates. finish stores the outcome in out and then
// closes done, so delivery never blocks on a departed waiter and a waiter
// that sees done closed reads out safely.
type scoreJob struct {
	tenant string
	user   uint64
	pin    Pinned
	inst   *rerank.Instance
	ctx    context.Context
	done   chan struct{}
	out    scoreOutcome
	idx    int
	call   *call
	// insts and states are the batch of one callScorer hands a stateScorer,
	// held here so the call builds no slices.
	insts  [1]*rerank.Instance
	states [1]*core.UserState
	// key identifies this request's encoded user state in the engine's state
	// cache; hasKey is set only when the cache is enabled and the pinned
	// scorer can consume states (so workers never hash or look up in vain).
	key    stateKey
	hasKey bool
}

// call is one Rerank or RerankBatch call's jobs and the slots admitting them
// took: one MaxInFlight slot and the quota slots in quota, one per distinct
// tenant. left counts the dispatched jobs not yet finished; the finish that
// takes it to zero gives every slot back.
type call struct {
	jobs  []scoreJob
	one   [1]scoreJob // backs jobs for a single request
	left  atomic.Int32
	quota []chan struct{}
}

// releaseQuota gives back the call's tenant-quota slots.
func (c *call) releaseQuota() {
	for _, sem := range c.quota {
		<-sem
	}
}

// diversifierNamer is the metric-labeling hook a weightless diversifier
// scorer (internal/diversify.Scorer) implements: the bare registry name
// ("mmr", "window", …) that labels its rapid_diversifier_* series.
type diversifierNamer interface{ DiversifierName() string }

// scorePool is the engine's bounded set of scoring workers behind one queue
// of dispatched jobs. The Engine owns exactly one pool for its whole life;
// workers start lazily on first dispatch and stop when Close is called. An
// engine used without Close (short-lived tests) leaves the bounded worker
// pool parked, which is harmless.
type scorePool struct {
	e     *Engine
	queue chan *scoreJob

	started, stopped sync.Once
	wg               sync.WaitGroup
}

// newScorePool sizes the queue so that a single request's dispatch never
// blocks: every call holds one MaxInFlight slot until its last job finishes,
// so at most MaxInFlight singles are queued or scoring. The rest is headroom
// for envelopes, which hold one slot but dispatch up to MaxBatchRequests
// jobs.
func newScorePool(e *Engine) *scorePool {
	return &scorePool{e: e, queue: make(chan *scoreJob, e.cfg.MaxInFlight+4*e.cfg.Batch.Workers+16)}
}

// dispatch hands one job to the workers. It is the only sender on the queue.
// An envelope of many jobs can fill the queue behind a stuck scorer; the send
// therefore gives up when the job's context ends and finishes the job with
// the context's error, so it still gets exactly one outcome and counts
// toward its call's release.
func (p *scorePool) dispatch(j *scoreJob) {
	p.started.Do(func() {
		for i := 0; i < p.e.cfg.Batch.Workers; i++ {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				for j := range p.queue {
					p.e.runJob(j)
				}
			}()
		}
	})
	select {
	case p.queue <- j:
	case <-j.ctx.Done():
		p.e.finish(j, scoreOutcome{err: j.ctx.Err()})
	}
}

// close stops the workers once the queue drains. Called by Engine.Close
// after the frontends have stopped submitting.
func (p *scorePool) close() {
	p.stopped.Do(func() { close(p.queue) })
	p.wg.Wait()
}

// runJob scores one dispatched job on a worker goroutine: a job whose context
// already ended finishes without scoring; otherwise it scores under its own
// scoring context, its outcome goes to its waiter, and a scored instance is
// offered to its pin's shadow hook.
func (e *Engine) runJob(j *scoreJob) {
	if err := j.ctx.Err(); err != nil {
		e.finish(j, scoreOutcome{err: err})
		return
	}
	e.met.Inflight.Add(1)
	sstart := time.Now()
	out := e.score(j)
	// Observed to true completion: a deadline-abandoned pass still lands its
	// real latency here, which is what the tail of this histogram is for.
	// Both fault hooks run inside the window, so a request degraded by
	// FaultHooks.Before lands in it and injected response latency reads exactly as
	// a truly slow forward pass would.
	elapsed := time.Since(sstart)
	e.met.Scoring.ObserveDuration(elapsed)
	e.met.Inflight.Add(-1)
	if out.err == nil {
		// Per-diversifier serving metrics: jobs pinned to a classic diversifier
		// version land in the rapid_diversifier_* family, labeled with the
		// registry name, so canary/shadow dashboards can compare heuristics
		// against model versions series-by-series.
		if dn, ok := j.pin.Scorer.(diversifierNamer); ok {
			name := dn.DiversifierName()
			e.met.DivRequests.With(name).Inc()
			e.met.DivItems.With(name).Add(int64(j.inst.L()))
			e.met.DivLatency.With(name).ObserveDuration(elapsed)
		}
	}
	e.finish(j, out)
	// Off-path shadow scoring: submit and move on; the shadow pool sheds under
	// pressure rather than delaying responses.
	if out.err == nil && j.pin.Shadow != nil {
		j.pin.Shadow(j.inst, out.scores)
	}
}

// score produces the job's outcome: the pre-scoring fault seam, one scorer
// call under the job's scoring context, the post-scoring fault seam. A panic
// anywhere in the three — injected or the model's own — is recovered here and
// degrades only this job's response.
func (e *Engine) score(j *scoreJob) (out scoreOutcome) {
	defer func() {
		if p := recover(); p != nil {
			e.met.Panics.Inc()
			e.Log("engine: recovered scoring panic: %v", p)
			out = scoreOutcome{err: fmt.Errorf("scoring panic: %v", p), panicked: true}
		}
	}()
	if e.Faults != nil && e.Faults.Before != nil {
		if err := e.Faults.Before(j.ctx, j.inst); err != nil {
			return scoreOutcome{err: err}
		}
	}
	scores, err := e.callScorer(j)
	if err != nil {
		return scoreOutcome{err: err}
	}
	if e.Faults != nil && e.Faults.After != nil {
		if err := e.Faults.After(j.ctx, j.inst, scores); err != nil {
			return scoreOutcome{err: err}
		}
	}
	return scoreOutcome{scores: scores}
}

// callScorer is the one place a scorer is invoked. With the state cache on
// and a scorer that can consume states it is the repeat-user fast path: a
// job carrying a state-cache key looks up its encoded user state first, a hit
// skips the preference pass entirely, and a fresh state comes back from the
// same call and is installed for the next request — the cache fills from
// scoring work the engine already paid for, never from extra encoding passes.
// ScoreBatchStates takes slices because the frozen bench/trace.go implements
// that signature (ROADMAP item 1 narrows it); callScorer passes a batch of
// one from the job's own arrays.
func (e *Engine) callScorer(j *scoreJob) ([]float64, error) {
	ss, ok := j.pin.Scorer.(stateScorer)
	if !ok || e.stateCache == nil {
		return j.pin.Scorer.Score(j.ctx, j.inst)
	}
	var state *core.UserState
	if j.hasKey {
		state, _ = e.stateCache.get(j.key)
	}
	j.insts[0], j.states[0] = j.inst, state
	res, used, err := ss.ScoreBatchStates(j.ctx, j.insts[:], j.states[:])
	if err != nil {
		return nil, err
	}
	if len(res) != 1 {
		return nil, fmt.Errorf("scorer %s returned %d score sets for 1 instance", ss.Name(), len(res))
	}
	// Install only a fresh miss: a hit's entry is already resident (get bumped
	// its recency), and used is nil for diversity-free models, which have no
	// state worth caching.
	if j.hasKey && state == nil && len(used) == 1 && used[0] != nil {
		e.stateCache.put(j.key, used[0])
	}
	return res[0], nil
}

// finish delivers a job's outcome, and the call's last finish releases every
// slot the call holds. Exactly one finish per job (a second would close done
// twice and panic): storing the outcome and closing done never blocks, even
// when the waiter already gave up on its deadline.
func (e *Engine) finish(j *scoreJob, out scoreOutcome) {
	j.out = out
	close(j.done)
	if j.call.left.Add(-1) == 0 {
		<-e.sem
		j.call.releaseQuota()
	}
}
