package registry

import (
	"context"
	"log"
	"math"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rerank"
)

// shadowJob is one request to score against the candidate off the request
// path: the instance the active model just served and the primary scores
// (aligned with the instance's Items).
type shadowJob struct {
	cand    *version
	inst    *rerank.Instance
	primary []float64
}

// The shadow pool's shape: shadowWorkers workers behind a queue of
// shadowQueue instances, comparing rankings at depth shadowK (overlap@k,
// ILD@k).
const (
	shadowWorkers = 2
	shadowQueue   = 64
	shadowK       = 10
)

// shadowPool scores shadow jobs on a fixed set of workers behind a bounded
// queue. Submission never blocks: when the queue is full the instance is shed
// and counted. The choice to shed rather than queue is deliberate — shadow
// scoring is an observability signal, and an unbounded queue would convert a
// slow candidate into unbounded memory growth and stale divergence numbers.
// A shed sample only widens the confidence interval.
type shadowPool struct {
	jobs chan shadowJob
	wg   sync.WaitGroup
	met  *lifecycleMetrics
}

func newShadowPool(met *lifecycleMetrics) *shadowPool {
	p := &shadowPool{jobs: make(chan shadowJob, shadowQueue), met: met}
	for i := 0; i < shadowWorkers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				p.score(job)
			}
		}()
	}
	return p
}

// submit enqueues one shadow instance or sheds it; it never blocks the
// caller (a serving-layer scoring worker).
func (p *shadowPool) submit(cand *version, inst *rerank.Instance, primary []float64) {
	select {
	case p.jobs <- shadowJob{cand: cand, inst: inst, primary: primary}:
	default:
		p.met.shadowShed.Inc()
	}
}

// close drains the queue and stops the workers.
func (p *shadowPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// score runs one shadow job: an instance the candidate's geometry cannot
// take is counted and dropped, otherwise it scores through the candidate and
// its divergence metrics land. A panicking candidate is counted, never
// propagated — shadow mode must be unable to hurt the serving process.
func (p *shadowPool) score(job shadowJob) {
	defer func() {
		if r := recover(); r != nil {
			p.met.shadowErrors.Inc()
			log.Printf("registry: recovered shadow scoring panic on %s: %v", job.cand.label, r)
		}
	}()
	cfg, inst := job.cand.man.Config, job.inst
	if cfg.UserDim != len(inst.UserFeat) || cfg.Topics != inst.M ||
		(len(inst.Items) > 0 && cfg.ItemDim != len(inst.ItemFeat(inst.Items[0]))) {
		// The instance was validated against the active model's geometry; a
		// candidate with a different one cannot score it. Canary traffic still
		// evaluates such a candidate (its requests validate against its own
		// manifest).
		p.met.shadowIncompatible.Inc()
		return
	}
	scores, err := job.cand.scorer.Score(context.Background(), inst)
	if err != nil {
		p.met.shadowErrors.Inc()
		return
	}
	p.compare(inst, job.primary, scores)
}

// compare lands one instance's shadow comparison: candidate-vs-primary score
// divergence, top-k rank overlap and the candidate's ILD@k.
func (p *shadowPool) compare(inst *rerank.Instance, primary, scores []float64) {
	if len(scores) != len(inst.Items) {
		p.met.shadowErrors.Inc()
		return
	}
	var div float64
	finite := true
	for i := range scores {
		if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
			finite = false
			break
		}
		div += math.Abs(scores[i] - primary[i])
	}
	if !finite {
		p.met.shadowErrors.Inc()
		return
	}
	p.met.shadowDivergence.Observe(div / float64(len(scores)))

	k := shadowK
	if k > len(inst.Items) {
		k = len(inst.Items)
	}
	primaryOrder := rerank.OrderByScores(inst.Items, primary)
	candOrder := rerank.OrderByScores(inst.Items, scores)
	inPrimary := make(map[int]bool, k)
	for _, id := range primaryOrder[:k] {
		inPrimary[id] = true
	}
	overlap := 0
	feats := make([][]float64, 0, k)
	for _, id := range candOrder[:k] {
		if inPrimary[id] {
			overlap++
		}
		feats = append(feats, inst.ItemFeat(id))
	}
	if k > 0 {
		p.met.shadowOverlap.Observe(float64(overlap) / float64(k))
	}
	p.met.shadowILD.Observe(metrics.ILDAtK(feats, k))
	p.met.shadowScored.Inc()
}
