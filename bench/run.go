package main

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// runConfig is how one workload is run. The driver's flags set seed, the
// slice length and trace; the rest are the constants of spec.go except in
// the smoke test, which shrinks them.
type runConfig struct {
	seed     int64
	sliceDur time.Duration
	slices   int     // valid slices wanted in the measured phase
	capS     float64 // stop measuring after this many seconds of slices
	setups   int     // times set-up is run from scratch
	warmup   int     // warm-up requests per set-up
	pairs    int     // traced run: traced slices, each paired with an untraced one
	outDir   string  // traced run: where the span file goes
}

func defaultConfig(seed int64, seconds int) runConfig {
	return runConfig{
		seed:     seed,
		sliceDur: time.Duration(seconds) * time.Second / measuredSlices,
		slices:   measuredSlices,
		capS:     1.5 * float64(seconds),
		setups:   3,
		warmup:   1000,
		pairs:    tracedSlices,
		outDir:   "bench/out",
	}
}

// result is one workload's outcome. Metrics holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Slices    int              `json:"slices_valid"`
	Taken     int              `json:"slices_taken"`
	Metrics   map[string]value `json:"metrics"`
}

// bench is a built workload: measure runs one slice of it.
type bench interface {
	measure(dur time.Duration) slice
	close()
}

// refLog keeps every reference-kernel reading of the process, for machine.*.
var refLog []float64

func timedRef() float64 {
	ms := refTime()
	refLog = append(refLog, ms)
	return ms
}

func build(name string, cfg runConfig, tr *tracer) (bench, error) {
	if name == offlineTrainEval {
		return setupOffline(cfg.seed, tr)
	}
	return setupServing(name, cfg.seed, cfg.warmup, tr)
}

// setUp builds the workload cfg.setups times from scratch, keeps the last
// build and returns the median build time at reference speed.
func setUp(name string, cfg runConfig, tr *tracer) (bench, value, error) {
	var b bench
	norm, raw := make([]float64, cfg.setups), make([]float64, cfg.setups)
	for i := range norm {
		if b != nil {
			b.close()
		}
		before, start := timedRef(), time.Now()
		var err error
		if b, err = build(name, cfg, tr); err != nil {
			return nil, value{}, fmt.Errorf("set-up of %s: %w", name, err)
		}
		raw[i] = time.Since(start).Seconds()
		norm[i] = raw[i] * slice{refBefore: before, refAfter: timedRef()}.speed()
	}
	return b, value{Value: median(norm), Unit: "s", Raw: median(raw), Samples: cfg.setups}, nil
}

// count adds up the operations of the slices a result stands on.
func (r *result) count(slices []slice, taken int) error {
	r.Slices, r.Taken = len(slices), taken
	failedSlices := 0
	for _, s := range slices {
		r.Attempted += s.lists
		r.Failed += s.failed
		if s.failed > 0 {
			failedSlices++
		}
	}
	if len(slices) == 0 {
		return errors.New("the host never ran the reference kernel within twice its nominal time: no valid slice")
	}
	if r.Workload == offlineTrainEval && failedSlices > 0 {
		return fmt.Errorf("offline round did not repeat: loss or a metric mean differed from the first round's in %d round(s)", failedSlices)
	}
	return nil
}

// runWorkload is the untraced run: set-up, the measured phase, the seven
// end-to-end metrics.
func runWorkload(name string, cfg runConfig) (*result, error) {
	b, setup, err := setUp(name, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer b.close()
	kept, taken := collectSlices(cfg.slices, cfg.capS, timedRef, func() slice {
		s := b.measure(cfg.sliceDur)
		s.rssMB = residentMB()
		return s
	})
	res := &result{Workload: name, Seed: cfg.seed, Correct: true}
	if err := res.count(kept, taken); err != nil {
		return nil, err
	}
	all := summarise(kept)
	all["setup_s"] = setup
	res.Metrics = map[string]value{}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = all[m.Name]
	}
	return res, nil
}

// traceWorkload is the traced run: one set-up with the span wrappers in
// place, then slices alternately with spans off and on, then the probes.
func traceWorkload(name string, cfg runConfig) (*result, error) {
	tr := newTracer()
	cfg.setups = 1
	b, _, err := setUp(name, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()

	i := 0
	kept, taken := collectSlices(2*cfg.pairs, cfg.capS, timedRef, func() slice {
		traced := i%2 == 1
		i++
		tr.on.Store(traced)
		start := tr.now()
		s := b.measure(cfg.sliceDur)
		tr.on.Store(false)
		s.traced, s.startNS, s.endNS = traced, start, tr.now()
		return s
	})
	res := &result{Workload: name, Seed: cfg.seed, Correct: true}
	if err := res.count(kept, taken); err != nil {
		return nil, err
	}

	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0 // a layer off this workload's path reads 0
	}
	var on, off []slice
	for _, s := range kept {
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return nil, errors.New("traced run has no valid slice pair")
	}
	untraced := summarise(off)
	p50On, p50Off := summarise(on)["latency_p50_ms"], untraced["latency_p50_ms"]
	out["machine.trace_overhead_ratio"] = p50On.Value / p50Off.Value
	out["machine.valid_slice_ratio"] = float64(len(kept)) / float64(taken)
	out["client.lists_attempted"] = float64(res.Attempted)
	out["client.lists_failed"] = float64(res.Failed)
	out["client.latency_raw_p50_ms"] = p50Off.Raw
	out["client.latency_p99_ms"] = untraced["latency_p99_ms"].Value

	reqs, unjoined := tr.join()
	switch w := b.(type) {
	case *serving:
		err = w.layerMetrics(out, reqs, on)
	case *offline:
		err = w.layerMetrics(out, on)
	}
	if err != nil {
		return nil, err
	}
	refs := sortedCopy(refLog)
	out["machine.ref_kernel_ms_p50"] = percentile(refs, 0.50)
	out["machine.ref_kernel_ms_p90"] = percentile(refs, 0.90)

	slots := make([]traceSlot, 0, len(on))
	for _, s := range on {
		slots = append(slots, traceSlot{StartUS: float64(s.startNS) / 1e3, EndUS: float64(s.endNS) / 1e3, Speed: s.speed()})
	}
	if err := tr.write(cfg.outDir, name, cfg.seed, unjoined, slots); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.Metrics = map[string]value{}
	for _, m := range perLayer {
		res.Metrics[m.Name] = value{Value: out[m.Name], Unit: m.Unit, Raw: out[m.Name], Samples: len(on)}
	}
	return res, nil
}

// speedAt returns the speed of the traced slice that contains tracer time
// ns, or 0 when that slice was dropped as invalid.
func speedAt(on []slice, ns int64) float64 {
	i := sort.Search(len(on), func(i int) bool { return on[i].endNS >= ns })
	if i < len(on) && on[i].startNS <= ns {
		return on[i].speed()
	}
	return 0
}

// layerMetrics fills in what the spans and the probes say about a serving
// workload. Span times are taken at the reference speed of their slice.
func (s *serving) layerMetrics(out map[string]float64, reqs []joined, on []slice) error {
	var transport, routerSelf, pre, post, nonscoring, perList []float64
	var attempts, calls, instances, cached float64
	seen := map[*span]bool{}
	for _, j := range reqs {
		speed := speedAt(on, j.client.start)
		if speed == 0 {
			continue
		}
		usAt := func(ns int64) float64 { return float64(ns) / 1e3 * speed }
		cSelf, rSelf, sSelf, core := j.selfTimes()
		if total := j.client.end - j.client.start; cSelf+rSelf+sSelf+core != total || cSelf < 0 || rSelf < 0 || sSelf < 0 {
			return fmt.Errorf("trace: request %d: self times %d+%d+%d+%d do not make up its client span %d", j.client.req, cSelf, rSelf, sSelf, core, total)
		}
		transport = append(transport, usAt(cSelf))
		nonscoring = append(nonscoring, usAt(cSelf+rSelf+sSelf))
		perList = append(perList, usAt(core)/float64(len(j.core.entries)))
		if j.router != nil {
			routerSelf = append(routerSelf, usAt(rSelf))
			attempts += float64(j.attempts)
		}
		if j.serve != nil {
			pre = append(pre, usAt(j.core.start-j.serve.start))
			post = append(post, usAt(j.serve.end-j.core.end))
		}
		if !seen[j.core] {
			seen[j.core] = true
			calls++
			instances += float64(len(j.core.entries))
			cached += float64(j.core.cached)
		}
	}
	if calls == 0 {
		return fmt.Errorf("trace: no request of %s could be joined to its spans", s.name)
	}
	out["client.transport_self_us_p50"] = median(transport)
	out["core.score_us_per_list_p50"] = median(perList)
	out["engine.batch_size_mean"] = instances / calls
	out["engine.cache_hit_ratio"] = cached / instances
	for _, e := range s.engines {
		st := e.Stats()
		out["engine.shed_total"] += float64(st.Shed)
		out["engine.degraded_total"] += float64(st.Degraded)
	}

	sm, err := s.sample()
	if err != nil {
		return fmt.Errorf("probe sample: %w", err)
	}
	scoreP50, err := probeCore(out, s.model, sm.insts)
	if err != nil {
		return err
	}
	probeKernels(out, s.model.Cfg, sm.insts)
	probeEngine(out, s.model, sm)
	// Derived, not measured: the engine's own share of a direct call is the
	// call less the model's share of it, both from probes on the same sample.
	out["engine.self_us_p50"] = out["engine.rerank_direct_us_p50"] - us(scoreP50)

	if s.name == binC1Unique {
		probeBinproto(out, sm)
		out["binproto.nonscoring_us_p50"] = median(nonscoring)
		return nil
	}
	probeServe(out, s.model, sm)
	out["serve.pre_us_p50"] = median(pre)
	out["serve.post_us_p50"] = median(post)
	// Derived: what is left of the time between handler entry and scorer
	// entry after JSON decoding and instance building, which the probes
	// time, is the wait for admission and for the coalescer's batch window.
	// The binary frontend has no handler to put a span around, and with one
	// client the coalescer dispatches at once, so it reads 0 there.
	wait := make([]float64, len(pre))
	for i, p := range pre {
		wait[i] = max(0, p-out["serve.json_decode_us"]-out["engine.to_instance_us"])
	}
	sort.Float64s(wait)
	out["engine.coalesce_wait_us_p50"] = percentile(wait, 0.50)
	out["engine.coalesce_wait_us_p99"] = percentile(wait, 0.99)
	if s.name == fleetC1Zipf {
		sort.Float64s(routerSelf)
		out["router.self_us_p50"] = percentile(routerSelf, 0.50)
		out["router.self_us_p99"] = percentile(routerSelf, 0.99)
		out["router.attempts_per_request"] = attempts / float64(len(routerSelf))
		if s.repeats > 0 {
			out["router.affinity_ratio"] = float64(s.kept) / float64(s.repeats)
		}
	}
	return nil
}

// layerMetrics fills in the offline workload's layers: the trainer's own
// epoch times from the traced rounds, and the probes.
func (o *offline) layerMetrics(out map[string]float64, on []slice) error {
	var epochs []float64
	for i, ms := range o.epochMS {
		if speed := speedAt(on, o.epochAt[i]); speed > 0 {
			epochs = append(epochs, ms*speed)
		}
	}
	out["rerank.train_epoch_ms_p50"] = median(epochs)
	insts := o.env.Test[:min(sampleSize, len(o.env.Test))]
	m := o.newModel()
	legacy := probe(func(i int) { _ = m.Scores(insts[i%len(insts)]) })
	out["core.legacy_scores_us"], out["core.legacy_scores_allocs"] = us(legacy.ns), legacy.allocs
	probeKernels(out, m.Cfg, insts)
	return probeOffline(out, o)
}
