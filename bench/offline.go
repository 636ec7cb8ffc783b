package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/rerank"
)

// offlineScale sizes the Taobao-like environment so that one round — train
// on every training list, evaluate three re-rankers on every test list —
// takes about a third of a second at reference speed, the serving
// workloads' slice length, and one set-up between one and two seconds. It
// is frozen: changing it changes what the baseline numbers mean.
const offlineScale = 0.34

var offlineCutoffs = []int{5, 10}

// Layers of the offline round's spans.
const (
	layerRerank      = "rerank"      // the rerank.TrainListwise call
	layerExperiments = "experiments" // each Env.Evaluate call
)

// offline is the reproduction user's loop: the same nn/mat kernels the
// servers read, used for writes.
type offline struct {
	env  *experiments.Env
	opt  experiments.Options
	tr   *tracer
	base []uint64 // the first round's loss and metric means, as bits
	done int      // rounds run

	// Traced rounds: the trainer's own epoch times and when each was reported.
	epochMS []float64
	epochAt []int64
}

// setupOffline builds the environment the experiments build: dataset, DIN
// initial ranker fitted and applied, DCM clicks simulated, instances made.
func setupOffline(seed int64, tr *tracer) (*offline, error) {
	opt := experiments.DefaultOptions()
	opt.Scale, opt.Seed, opt.Epochs = offlineScale, seed, 1
	rd, err := experiments.BuildRankedData(dataset.TaobaoLike(seed), experiments.NewRankerByName("DIN", seed), opt)
	if err != nil {
		return nil, err
	}
	return &offline{env: experiments.BuildEnv(rd, 0.5, opt), opt: opt, tr: tr}, nil
}

func (o *offline) close() {}

func (o *offline) lists() int { return len(o.env.Train) + 3*len(o.env.Test) }

// newModel returns the round's model: RAPID-pro as the experiments build it,
// the same seed every time, set to train for one epoch.
func (o *offline) newModel() *core.Model { return experiments.NewRAPID(o.env, o.opt, 12, nil) }

// ObserveEpoch implements rerank.EpochObserver for traced rounds.
func (o *offline) ObserveEpoch(es rerank.EpochStats) {
	o.epochMS = append(o.epochMS, float64(es.Duration.Nanoseconds())/1e6)
	o.epochAt = append(o.epochAt, o.tr.now())
}

// round trains a fresh same-seed RAPID-pro for one epoch and evaluates it,
// MMR and DPP on the test lists. It returns the epoch loss and every metric
// mean as bit patterns: the same seed and the same work must give the same
// floats on every round.
func (o *offline) round() ([]uint64, error) {
	traced := o.tr.enabled()
	timed := func(layer string, f func()) {
		if !traced {
			f()
			return
		}
		start := o.tr.now()
		f()
		o.tr.add(span{layer: layer, req: int64(o.done), start: start, end: o.tr.now()})
	}
	m := o.newModel()
	cfg := m.TrainCfg
	cfg.Workers = runtime.GOMAXPROCS(0)
	if traced {
		cfg.Observer = o
	}
	var loss float64
	var err error
	timed(layerRerank, func() { loss, err = rerank.TrainListwise(m, o.env.Train, cfg) })
	if err != nil {
		return nil, err
	}
	bits := []uint64{math.Float64bits(loss)}
	for _, r := range []rerank.Reranker{m, baselines.NewMMR(), baselines.NewDPP()} {
		var res *experiments.EvalResult
		timed(layerExperiments, func() { res = o.env.Evaluate(r, offlineCutoffs) })
		for _, key := range res.Metrics() {
			bits = append(bits, math.Float64bits(res.Mean(key)))
		}
	}
	return bits, nil
}

// measure runs one round as one slice; the work is fixed, so dur is unused.
// A round that does not repeat the first one bit for bit fails.
func (o *offline) measure(time.Duration) slice {
	m0, c0, start := mallocs(), cpuMS(), time.Now()
	var t0 int64
	if o.tr.enabled() {
		t0 = o.tr.now()
	}
	bits, err := o.round()
	wall := time.Since(start)
	if o.tr.enabled() {
		o.tr.add(span{layer: layerClient, req: int64(o.done), start: t0, end: o.tr.now()})
	}
	c1, m1 := cpuMS(), mallocs()
	o.done++
	ms := float64(wall.Nanoseconds()) / 1e6
	sl := slice{wallS: wall.Seconds(), lists: o.lists(), p50MS: ms, p90MS: ms, p99MS: ms, cpuMS: c1 - c0, mallocs: m1 - m0}
	if o.base == nil && err == nil {
		o.base = bits
	}
	if err != nil || !slices.Equal(bits, o.base) {
		sl.failed = sl.lists
	}
	return sl
}
