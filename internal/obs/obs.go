// Package obs is the repository's zero-dependency observability layer: an
// atomic metrics registry (counters, labeled counters, gauges, fixed-bucket
// histograms) with a Prometheus-text-format exposition handler and opt-in
// net/http/pprof wiring.
//
// The serving layer (internal/serve) and the training CLIs instrument their
// hot paths against this package; a production re-ranking stage that cannot
// report its degrade rate, shed rate and tail latency is not operable, and
// pulling in a client library would break the repo's stdlib-only contract.
// Every metric operation is a single atomic op (plus one CAS loop for float
// accumulation), so instrumenting a path costs nanoseconds and never locks.
//
// Concurrency model: metric updates are lock-free and safe from any
// goroutine. A Snapshot (and therefore a /metrics scrape) reads each atomic
// individually — counters are monotone and exact, but a histogram's sum,
// count and buckets are read as separate atomics, so a scrape racing an
// Observe may see a histogram whose parts differ by the in-flight
// observation. That is the standard scrape-consistency contract; totals
// reconcile on the next scrape.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric types in a Snapshot.
type Kind string

const (
	kindCounter   Kind = "counter"
	kindGauge     Kind = "gauge"
	kindHistogram Kind = "histogram"
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

// CounterVec is a counter partitioned by the values of one label (e.g.
// degraded_total{reason="deadline"}). Label values are created on first use
// and live for the registry's lifetime, so the cardinality must be small and
// bounded — reasons and statuses, never user ids.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	by    map[string]*Counter
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.by[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.by[value]; c == nil {
		c = &Counter{}
		v.by[value] = c
	}
	return c
}

// Total sums the counter across all label values.
func (v *CounterVec) Total() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var t int64
	for _, c := range v.by {
		t += c.Value()
	}
	return t
}

// HistogramVec is a histogram partitioned by the values of one label (e.g.
// request latency keyed by model version). Like CounterVec, label values are
// created on first use and live for the registry's lifetime, so the
// cardinality must stay small and bounded — model versions and stages, never
// user ids.
type HistogramVec struct {
	label  string
	bounds []float64
	mu     sync.RWMutex
	by     map[string]*Histogram
}

// With returns the histogram for one label value, creating it on first use.
// Creating a value eagerly (before any Observe) is deliberate: it makes the
// series visible on /metrics at zero, so dashboards see a new model version
// the moment it is registered rather than at its first request.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.by[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.by[value]; h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), v.bounds...),
			counts: make([]atomic.Int64, len(v.bounds)+1),
		}
		v.by[value] = h
	}
	return h
}

// GaugeVec is a gauge partitioned by the values of one label (e.g. replica
// health keyed by replica id). Like CounterVec, label values are created on
// first use and live for the registry's lifetime, so the cardinality must
// stay small and bounded — replica ids and states, never user ids.
type GaugeVec struct {
	label string
	mu    sync.RWMutex
	by    map[string]*Gauge
}

// With returns the gauge for one label value, creating it on first use.
// Creating a value eagerly (before any Set) is deliberate: it makes the
// series visible on /metrics at zero, so dashboards see a new replica the
// moment the router learns of it rather than at its first state change.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g := v.by[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.by[value]; g == nil {
		g = &Gauge{}
		v.by[value] = g
	}
	return g
}

// Gauge is an instantaneous float64 value (in-flight requests, last epoch
// loss). Add uses a CAS loop so concurrent deltas never lose updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

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
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a consistent-enough copy of a histogram's state (see
// the package comment for the scrape-consistency contract).
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// entry for the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// LabeledValue is one label value of a CounterVec in a snapshot.
type LabeledValue struct {
	Value string `json:"value"`
	Count int64  `json:"count"`
}

// LabeledGauge is one label value of a GaugeVec in a snapshot.
type LabeledGauge struct {
	Value string  `json:"value"`
	Gauge float64 `json:"gauge"`
}

// LabeledHist is one label value of a HistogramVec in a snapshot.
type LabeledHist struct {
	Value string            `json:"value"`
	Hist  HistogramSnapshot `json:"histogram"`
}

// MetricSnapshot is one metric's state in Registry.Snapshot — the common
// currency of the /metrics renderer, the golden tests and the benchmark
// harness's JSON output.
type MetricSnapshot struct {
	Name          string             `json:"name"`
	Help          string             `json:"help"`
	Kind          Kind               `json:"kind"`
	Value         float64            `json:"value,omitempty"`          // counter, gauge
	Label         string             `json:"label,omitempty"`          // labeled counter, gauge or histogram
	Labeled       []LabeledValue     `json:"labeled,omitempty"`        // sorted by label value
	LabeledGauges []LabeledGauge     `json:"labeled_gauges,omitempty"` // sorted by label value
	Hist          *HistogramSnapshot `json:"histogram,omitempty"`
	LabeledHists  []LabeledHist      `json:"labeled_histograms,omitempty"` // sorted by label value
}

// metric is one registered metric with its metadata.
type metric struct {
	name string
	help string
	impl any // *Counter | *CounterVec | *Gauge | *GaugeVec | *Histogram | *HistogramVec
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
func register[T any](r *Registry, name, help string, make func() T) T {
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
	r.by[name] = &metric{name: name, help: help, impl: impl}
	return impl
}

// Counter registers (or fetches) a monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, help, func() *Counter { return &Counter{} })
}

// CounterVec registers (or fetches) a counter partitioned by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return register(r, name, help, func() *CounterVec {
		return &CounterVec{label: label, by: map[string]*Counter{}}
	})
}

// Gauge registers (or fetches) a float gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, help, func() *Gauge { return &Gauge{} })
}

// GaugeVec registers (or fetches) a gauge partitioned by one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return register(r, name, help, func() *GaugeVec {
		return &GaugeVec{label: label, by: map[string]*Gauge{}}
	})
}

// Histogram registers (or fetches) a fixed-bucket histogram. bounds must be
// sorted ascending; nil means LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return register(r, name, help, func() *Histogram {
		if bounds == nil {
			bounds = latencyBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not sorted: %v", name, bounds))
			}
		}
		return &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	})
}

// HistogramVec registers (or fetches) a fixed-bucket histogram partitioned
// by one label. bounds must be sorted ascending; nil means LatencyBuckets.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return register(r, name, help, func() *HistogramVec {
		if bounds == nil {
			bounds = latencyBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not sorted: %v", name, bounds))
			}
		}
		return &HistogramVec{
			label:  label,
			bounds: append([]float64(nil), bounds...),
			by:     map[string]*Histogram{},
		}
	})
}

// Snapshot captures every registered metric, sorted by name so the output
// order is stable regardless of registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.by))
	for _, m := range r.by {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Help: m.help}
		switch impl := m.impl.(type) {
		case *Counter:
			s.Kind = kindCounter
			s.Value = float64(impl.Value())
		case *Gauge:
			s.Kind = kindGauge
			s.Value = impl.Value()
		case *CounterVec:
			s.Kind = kindCounter
			s.Label = impl.label
			impl.mu.RLock()
			for v, c := range impl.by {
				s.Labeled = append(s.Labeled, LabeledValue{Value: v, Count: c.Value()})
			}
			impl.mu.RUnlock()
			sort.Slice(s.Labeled, func(i, j int) bool { return s.Labeled[i].Value < s.Labeled[j].Value })
		case *GaugeVec:
			s.Kind = kindGauge
			s.Label = impl.label
			impl.mu.RLock()
			for v, g := range impl.by {
				s.LabeledGauges = append(s.LabeledGauges, LabeledGauge{Value: v, Gauge: g.Value()})
			}
			impl.mu.RUnlock()
			sort.Slice(s.LabeledGauges, func(i, j int) bool { return s.LabeledGauges[i].Value < s.LabeledGauges[j].Value })
		case *Histogram:
			s.Kind = kindHistogram
			h := impl.Snapshot()
			s.Hist = &h
		case *HistogramVec:
			s.Kind = kindHistogram
			s.Label = impl.label
			impl.mu.RLock()
			for v, h := range impl.by {
				s.LabeledHists = append(s.LabeledHists, LabeledHist{Value: v, Hist: h.Snapshot()})
			}
			impl.mu.RUnlock()
			sort.Slice(s.LabeledHists, func(i, j int) bool { return s.LabeledHists[i].Value < s.LabeledHists[j].Value })
		}
		out = append(out, s)
	}
	return out
}
