// Package obs is the repository's zero-dependency observability layer: an
// atomic metrics registry (counters, gauges, fixed-bucket histograms, and
// each of them partitioned by one label) with a Prometheus-text-format
// exposition handler and opt-in net/http/pprof wiring.
//
// The serving layer (internal/serve) and the training CLIs instrument their
// hot paths against this package; a production re-ranking stage that cannot
// report its degrade rate, shed rate and tail latency is not operable, and
// pulling in a client library would break the repo's stdlib-only contract.
// Every metric operation is a single atomic op (plus one CAS loop for float
// accumulation), so instrumenting a path costs nanoseconds and never locks.
//
// Concurrency model: metric updates are lock-free and safe from any
// goroutine. A /metrics scrape reads each atomic individually — counters
// are monotone and exact, but a histogram's sum, count and buckets are read
// as separate atomics, so a scrape racing an Observe may see a histogram
// whose parts differ by the in-flight observation. That is the standard
// scrape-consistency contract; totals reconcile on the next scrape.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the default histogram bounds for request latencies, in
// seconds. They bracket the paper's 50 ms industrial budget (Section V-B)
// with decade resolution on both sides.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Vec is a metric partitioned by the values of one label (e.g.
// degraded_total{reason="deadline"}). Label values are created on first use
// and live for the registry's lifetime, so the cardinality must be small and
// bounded — reasons, statuses, model versions and replica ids, never user
// ids.
type Vec[M series] struct {
	label string
	newM  func() M
	mu    sync.RWMutex
	by    map[string]M
}

// CounterVec, GaugeVec and HistogramVec are the three labeled families.
type (
	CounterVec   = Vec[*Counter]
	GaugeVec     = Vec[*Gauge]
	HistogramVec = Vec[*Histogram]
)

// With returns the series for one label value, creating it on first use.
// Creating a value eagerly (before any update) is deliberate: it makes the
// series visible on /metrics at zero, so dashboards see a new model version
// or replica the moment it is registered rather than at its first event.
func (v *Vec[M]) With(value string) M {
	v.mu.RLock()
	m, ok := v.by[value]
	v.mu.RUnlock()
	if ok {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok = v.by[value]; !ok {
		m = v.newM()
		v.by[value] = m
	}
	return m
}

// Total sums a labeled counter across all label values.
func Total(v *CounterVec) int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var t int64
	for _, c := range v.by {
		t += c.Value()
	}
	return t
}

// addFloat atomically adds d to the float64 whose bits u holds; the CAS
// loop keeps concurrent deltas from losing updates.
func addFloat(u *atomic.Uint64, d float64) {
	for {
		old := u.Load()
		if u.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Gauge is an instantaneous float64 value (in-flight requests, last epoch
// loss).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency/size histogram: counts per upper
// bound (plus an implicit +Inf bucket), a total count and a value sum. The
// bucket layout is fixed at registration, so Observe is a linear scan over a
// handful of bounds plus three atomic ops — no locks, no allocation.
type Histogram struct {
	bounds []float64 // sorted ascending upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reads the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reads the sum of the observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// histograms validates bounds (sorted ascending; nil means latencyBuckets)
// and returns a constructor of empty histograms over one private copy.
func histograms(name string, bounds []float64) func() *Histogram {
	if bounds == nil {
		bounds = latencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not sorted: %v", name, bounds))
		}
	}
	bounds = append([]float64(nil), bounds...)
	return func() *Histogram {
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
}

// metric is one registered metric with its metadata.
type metric struct {
	name string
	help string
	typ  string // the exposition's # TYPE: counter, gauge or histogram
	impl series
}

// Registry owns a flat namespace of metrics. Registration is idempotent:
// re-registering a name returns the existing metric (and panics if the kind
// disagrees — that is a programming error, not an operational condition).
// The zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu sync.Mutex
	by map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: map[string]*metric{}}
}

// register returns the existing metric under name or claims the name with
// make's result, panicking when the existing metric has a different type.
func register[T series](r *Registry, name, help, typ string, make func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.by[name]; ok {
		impl, ok := m.impl.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as %T, was %T", name, *new(T), m.impl))
		}
		return impl
	}
	impl := make()
	r.by[name] = &metric{name: name, help: help, typ: typ, impl: impl}
	return impl
}

// registerVec is register for a family partitioned by label.
func registerVec[M series](r *Registry, name, help, typ, label string, newM func() M) *Vec[M] {
	return register(r, name, help, typ, func() *Vec[M] {
		return &Vec[M]{label: label, newM: newM, by: map[string]M{}}
	})
}

// Counter registers (or fetches) a monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, help, "counter", func() *Counter { return &Counter{} })
}

// CounterVec registers (or fetches) a counter partitioned by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return registerVec(r, name, help, "counter", label, func() *Counter { return &Counter{} })
}

// Gauge registers (or fetches) a float gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, help, "gauge", func() *Gauge { return &Gauge{} })
}

// GaugeVec registers (or fetches) a gauge partitioned by one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return registerVec(r, name, help, "gauge", label, func() *Gauge { return &Gauge{} })
}

// Histogram registers (or fetches) a fixed-bucket histogram. bounds must be
// sorted ascending; nil means latencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return register(r, name, help, "histogram", histograms(name, bounds))
}

// HistogramVec registers (or fetches) a fixed-bucket histogram partitioned
// by one label. bounds must be sorted ascending; nil means latencyBuckets.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return registerVec(r, name, help, "histogram", label, histograms(name, bounds))
}
