// Package experiments wires the substrates together into the paper's
// evaluation pipeline (Section IV): generate a dataset, train an initial
// ranker, build initial lists, simulate clicks with the DCM environment,
// train every re-ranker, and compute the table/figure quantities. Each
// table and figure of the paper has a driver function in this package.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ranker"
	"repro/internal/rerank"
)

// Options controls experiment size and reporting.
type Options struct {
	// Scale multiplies every dataset count; 1.0 is the harness default
	// (a laptop-scale stand-in for the paper's millions of interactions).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Hidden is q_h for all neural models.
	Hidden int
	// D is RAPID's per-topic behavior length.
	D int
	// Epochs for neural re-ranker training.
	Epochs int
	// Log receives progress lines; nil silences them.
	Log io.Writer
}

// DefaultOptions returns the harness defaults (hidden 16, D 5).
func DefaultOptions() Options {
	return Options{Scale: 1, Seed: 42, Hidden: 16, D: 5, Epochs: 8}
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Env is a fully prepared experimental environment for one (dataset,
// initial ranker, λ) triple.
type Env struct {
	Data   *dataset.Dataset
	Ranker ranker.Ranker
	DCM    *clickmodel.DCM
	Lambda float64
	// Train/Test are the re-ranking training and test instances.
	Train []*rerank.Instance
	Test  []*rerank.Instance
}

// RankedData is a dataset with a fitted initial ranker and its precomputed
// initial lists — shared across λ settings, since clicks are the only thing
// λ changes.
type RankedData struct {
	Data        *dataset.Dataset
	Ranker      ranker.Ranker
	trainLists  [][]int
	trainScores [][]float64
	trainUsers  []int
	testLists   [][]int
	testScores  [][]float64
	testUsers   []int
}

// BuildRankedData generates a dataset, fits the initial ranker on the
// ranker-train split, and materializes the initial lists for the re-rank
// train and test pools.
func BuildRankedData(cfg dataset.Config, rk ranker.Ranker, opt Options) (*RankedData, error) {
	if opt.Scale != 1 {
		cfg = cfg.Scaled(opt.Scale)
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	opt.logf("[%s] dataset: %d users, %d items, %d train requests, %d test requests",
		cfg.Name, len(d.Users), len(d.Items), len(d.RerankPools), len(d.TestPools))
	start := time.Now()
	if err := rk.Fit(d); err != nil {
		return nil, fmt.Errorf("experiments: fit initial ranker %s: %w", rk.Name(), err)
	}
	opt.logf("[%s] initial ranker %s fitted in %v", cfg.Name, rk.Name(), time.Since(start).Round(time.Millisecond))
	rd := &RankedData{Data: d, Ranker: rk}
	rd.trainLists, rd.trainScores, rd.trainUsers = rankPools(rk, d, d.RerankPools, cfg.ListLen)
	rd.testLists, rd.testScores, rd.testUsers = rankPools(rk, d, d.TestPools, cfg.ListLen)
	return rd, nil
}

// rankPools ranks every pool with rk on every core (rk's Score is safe for
// concurrent use): the initial lists of length l, their scores and their
// users, in pool order.
func rankPools(rk ranker.Ranker, d *dataset.Dataset, pools []dataset.Pool, l int) (lists [][]int, scores [][]float64, users []int) {
	lists, scores, users = make([][]int, len(pools)), make([][]float64, len(pools)), make([]int, len(pools))
	forEach(len(pools), func(_ struct{}, i int) struct{} {
		lists[i], scores[i] = ranker.RankPool(rk, d, pools[i], l)
		users[i] = pools[i].User
		return struct{}{}
	})
	return lists, scores, users
}

// BuildEnv derives the λ-specific environment from ranked data: the DCM,
// simulated training clicks, and assembled instances.
func BuildEnv(rd *RankedData, lambda float64, opt Options) *Env {
	d := rd.Data
	dcm := &clickmodel.DCM{
		Lambda:      lambda,
		Relevance:   d.Relevance,
		DivWeight:   d.DivWeight,
		Cover:       d.Cover,
		Termination: clickmodel.DefaultTermination(d.Cfg.ListLen, 0.75, 0.92),
		Topics:      d.M(),
	}
	env := &Env{Data: d, Ranker: rd.Ranker, DCM: dcm, Lambda: lambda}
	clickRNG := rand.New(rand.NewSource(opt.Seed ^ 0x5eed))
	instRNG := rand.New(rand.NewSource(opt.Seed ^ 0x1257))
	for i := range rd.trainLists {
		clicks, _ := dcm.Simulate(rd.trainUsers[i], rd.trainLists[i], clickRNG)
		req := dataset.Request{
			User:       rd.trainUsers[i],
			Items:      rd.trainLists[i],
			InitScores: rd.trainScores[i],
			Clicks:     clicks,
		}
		env.Train = append(env.Train, rerank.NewInstance(d, req, instRNG))
	}
	for i := range rd.testLists {
		req := dataset.Request{
			User:       rd.testUsers[i],
			Items:      rd.testLists[i],
			InitScores: rd.testScores[i],
		}
		env.Test = append(env.Test, rerank.NewInstance(d, req, instRNG))
	}
	return env
}

// EvalResult holds per-request metric samples for one re-ranker, enabling
// both means and significance tests.
type EvalResult struct {
	Name       string
	PerRequest map[string][]float64
}

// Mean returns the average of one metric.
func (r *EvalResult) Mean(metric string) float64 {
	return metrics.Mean(r.PerRequest[metric])
}

// Metrics returns the sorted metric keys.
func (r *EvalResult) Metrics() []string {
	keys := make([]string, 0, len(r.PerRequest))
	for k := range r.PerRequest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Evaluate runs the re-ranker over the test instances and computes the
// paper's metrics at the given cutoffs. Expected (exact) DCM click
// probabilities are used instead of sampled clicks, which removes
// evaluation variance without changing any expectation. Requests are
// scored in parallel (inference is read-only on a fitted model); results
// keep the test-set order so paired significance tests line up.
func (e *Env) Evaluate(r rerank.Reranker, ks []int) *EvalResult {
	// Every list reports the same metrics in the same order: the keys are
	// built once, and list i's values fill row i of one table.
	bids := e.Data.Cfg.WithBids
	var keys []string
	for _, k := range ks {
		suffix := fmt.Sprintf("@%d", k)
		keys = append(keys, "click"+suffix, "ndcg"+suffix, "div"+suffix, "satis"+suffix)
		if bids {
			keys = append(keys, "rev"+suffix)
		}
	}
	vals := make([]float64, len(e.Test)*len(keys))
	type scratch struct {
		cover [][]float64 // reused across one goroutine's lists
		bid   []float64
	}
	forEach(len(e.Test), func(s scratch, i int) scratch {
		inst := e.Test[i]
		ranked := rerank.Apply(r, inst)
		phi := e.DCM.Attractions(inst.User, ranked)
		exp := e.DCM.ExpectedClicksFrom(phi)
		cover, bid := slices.Grow(s.cover[:0], len(ranked)), slices.Grow(s.bid[:0], len(ranked))
		for _, v := range ranked {
			cover = append(cover, e.Data.Cover(v))
			if bids {
				bid = append(bid, e.Data.Bid(v))
			}
		}
		row := vals[i*len(keys) : (i+1)*len(keys)]
		for _, k := range ks {
			row[0] = metrics.ClickAtK(exp, k)
			row[1] = metrics.NDCGAtK(exp, k)
			row[2] = metrics.DivAtK(cover, e.Data.M(), k)
			row[3] = e.DCM.SatisfactionFrom(phi, k)
			row = row[4:]
			if bids {
				row[0] = metrics.RevAtK(exp, bid, k)
				row = row[1:]
			}
		}
		return scratch{cover, bid}
	})
	res := &EvalResult{Name: r.Name(), PerRequest: make(map[string][]float64, len(keys))}
	if len(e.Test) > 0 {
		for _, key := range keys {
			res.PerRequest[key] = slices.Grow(res.PerRequest[key], len(e.Test))
		}
	}
	for i := range e.Test {
		for c, key := range keys {
			res.PerRequest[key] = append(res.PerRequest[key], vals[i*len(keys)+c])
		}
	}
	return res
}

// forEach calls body for every i in [0, n) on up to GOMAXPROCS goroutines,
// each taking the next i as it frees up. A goroutine hands body the scratch
// its previous call returned (the zero S at first), so scratch is reused
// without a lock and without escaping to the heap. Callers write results
// by index, so the output does not depend on the schedule; body must be
// safe to run concurrently with itself.
func forEach[S any](n int, body func(s S, i int) S) {
	var next atomic.Int64
	var wg sync.WaitGroup
	nw := max(1, min(runtime.GOMAXPROCS(0), n))
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s S
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s = body(s, i)
			}
		}()
	}
	wg.Wait()
}

// FitIfTrainable fits r on the environment's training instances when it is
// trainable; heuristic re-rankers pass through.
func (e *Env) FitIfTrainable(r rerank.Reranker, opt Options) error {
	t, ok := r.(rerank.Trainable)
	if !ok {
		return nil
	}
	start := time.Now()
	err := t.Fit(e.Train)
	opt.logf("[%s λ=%.1f] trained %s in %v", e.Data.Name, e.Lambda, r.Name(), time.Since(start).Round(time.Millisecond))
	return err
}
