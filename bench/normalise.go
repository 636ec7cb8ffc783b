package main

import (
	"math"
	"sort"
)

// A slice is one short stretch of measurement bracketed by two runs of the
// reference kernel. Whatever the host was doing to the workload during the
// slice it was also doing to the kernel, so dividing by the kernel's time
// cancels the host's speed out of the slice's timings.
type slice struct {
	refBefore, refAfter float64 // reference kernel wall time, ms

	wallS   float64 // wall time of the slice, s
	lists   int     // lists re-ranked (or trained on plus evaluated) in the slice
	failed  int     // operations that failed
	p50MS   float64 // latency percentiles over the slice's own samples
	p90MS   float64
	p99MS   float64 // reported by the traced run only: see summarise
	cpuMS   float64 // process user+sys CPU spent in the slice
	mallocs uint64  // heap allocations made in the slice
	rssMB   float64 // resident set when the slice ended

	// waitMS, when set, is a wall-clock window the benchmark itself configured
	// on the path (the coalescer's MaxWait, where two clients can overlap). A
	// timer does not run slower on a slow host, so the part of a latency that
	// provably sat out the window is not scaled; see atRef.
	waitMS float64

	// Traced runs: whether spans were on, and the slice's window on the
	// tracer's clock.
	traced         bool
	startNS, endNS int64
}

// speed is how fast the host ran during the slice relative to nominal:
// above 1 on a fast host, below 1 on a slow one.
func (s slice) speed() float64 {
	return refNominalMS / ((s.refBefore + s.refAfter) / 2)
}

// atRef takes a latency of this slice to reference speed. Only work scales
// with the host: of a latency longer than the slice's wall-clock window, the
// window is kept as it is. The mapping is increasing, so it may be applied to
// a percentile instead of to every sample.
func (s slice) atRef(ms float64) float64 {
	if s.waitMS > 0 && ms > s.waitMS {
		return s.waitMS + (ms-s.waitMS)*s.speed()
	}
	return ms * s.speed()
}

// valid rejects slices taken while the host was stalled: beyond twice the
// nominal kernel time the kernel and the workload no longer slow down in
// proportion.
func (s slice) valid() bool {
	return s.refBefore <= 2*refNominalMS && s.refAfter <= 2*refNominalMS
}

// collectSlices calls measure until it has `want` valid slices or the
// measured slices (valid or not) add up to capS seconds. ref times the
// reference kernel; each slice shares a kernel run with its neighbours.
func collectSlices(want int, capS float64, ref func() float64, measure func() slice) (kept []slice, taken int) {
	kept = make([]slice, 0, want)
	before := ref()
	for spent := 0.0; len(kept) < want && spent < capS; {
		s := measure()
		s.refBefore, s.refAfter = before, ref()
		before = s.refAfter
		spent += s.wallS
		taken++
		if s.valid() {
			kept = append(kept, s)
		}
	}
	return kept, taken
}

// value is one reported number: the speed-normalised figure, the same
// statistic without normalisation, and how many samples stand behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Raw     float64 `json:"raw"`
	Samples int     `json:"samples"`
}

// summarise reduces valid slices to the end-to-end timing metrics: each is
// the median over slices of the slice's own figure at reference speed.
//
// The gated tail is the p90, not the p99. On this host the hypervisor takes
// the CPU away for milliseconds at a time, a few percent of the time on a bad
// day; each such pause lands on one request of a closed loop. A percentile is
// steady only where the latency curve is flat around it, and with one client
// the curve turns steep between p97 and p99.5 (0.8 → 1.7 ms), so the share of
// requests a neighbour happened to hit decides where the p99 falls: identical
// runs spread 20–60%. Up to p95 the curve is the program's own. The p99 is
// still computed and the traced run reports it, without a bound.
func summarise(slices []slice) map[string]value {
	n := len(slices)
	col := func(f func(slice) (norm, raw float64)) (float64, float64) {
		norm, raw := make([]float64, n), make([]float64, n)
		for i, s := range slices {
			norm[i], raw[i] = f(s)
		}
		return median(norm), median(raw)
	}
	out := map[string]value{}
	put := func(name, unit string, f func(slice) (float64, float64)) {
		v, raw := col(f)
		out[name] = value{Value: v, Unit: unit, Raw: raw, Samples: n}
	}
	put("latency_p50_ms", "ms", func(s slice) (float64, float64) { return s.atRef(s.p50MS), s.p50MS })
	put("latency_p90_ms", "ms", func(s slice) (float64, float64) { return s.atRef(s.p90MS), s.p90MS })
	put("latency_p99_ms", "ms", func(s slice) (float64, float64) { return s.atRef(s.p99MS), s.p99MS })
	put("throughput_lists_per_s", "1/s", func(s slice) (float64, float64) {
		t := float64(s.lists) / s.wallS
		return t / s.speed(), t
	})
	put("cpu_ms_per_list", "ms", func(s slice) (float64, float64) {
		c := s.cpuMS / float64(s.lists)
		return c * s.speed(), c
	})
	// A count does not depend on how fast the host runs.
	put("allocs_per_list", "count", func(s slice) (float64, float64) {
		a := float64(s.mallocs) / float64(s.lists)
		return a, a
	})
	put("mem_rss_mb", "MB", func(s slice) (float64, float64) { return s.rssMB, s.rssMB })
	return out
}

// median returns the middle of xs (mean of the two middle values for an even
// count) without reordering the caller's slice; NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s, n := sortedCopy(xs), len(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sortedCopy returns xs ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
