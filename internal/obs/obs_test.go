package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "other help"); again != c {
		t.Fatal("re-registration did not return the existing counter")
	}
	v := r.CounterVec("v_total", "help", "reason")
	v.With("a").Inc()
	v.With("b").Add(2)
	v.With("a").Inc()
	if v.With("a").Value() != 2 || v.With("b").Value() != 2 || Total(v) != 4 {
		t.Fatalf("vec a=%d b=%d total=%d", v.With("a").Value(), v.With("b").Value(), Total(v))
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

// TestGaugeVec covers the labeled-gauge family: per-value isolation,
// idempotent With, eager series creation at zero, label-value ordering and
// the text exposition (float samples, unlike CounterVec's integers).
func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("replica_up", "by replica", "replica")
	if gv.With("a") != gv.With("a") {
		t.Fatal("With not idempotent")
	}
	gv.With("b") // eager creation: must appear in the exposition at zero
	gv.With("a").Set(1)
	gv.With("c").Set(0.5)

	want := "# HELP replica_up by replica\n" +
		"# TYPE replica_up gauge\n" +
		`replica_up{replica="a"} 1` + "\n" +
		`replica_up{replica="b"} 0` + "\n" +
		`replica_up{replica="c"} 0.5` + "\n"
	if got := exposition(t, r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// exposition renders r's text exposition.
func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// bucketCounts reads h's per-bucket (not cumulative) counts, +Inf last.
func bucketCounts(h *Histogram) []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// TestCounterSamplesAreIntegers: a counter renders its exact integer count
// whether or not it carries a label, at every magnitude.
func TestCounterSamplesAreIntegers(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(1234567)
	r.CounterVec("b_total", "", "k").With("x").Add(1234567)
	want := "# TYPE a_total counter\na_total 1234567\n" +
		"# TYPE b_total counter\nb_total{k=\"x\"} 1234567\n"
	if got := exposition(t, r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	// Upper bounds are inclusive (Prometheus le semantics): 0.1 lands in the
	// first bucket; 100 lands in +Inf.
	want := []int64{2, 1, 1, 1}
	counts := bucketCounts(h)
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 || h.Sum() != 0.05+0.1+0.5+2+100 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	h.ObserveDuration(50 * time.Millisecond)
	if got := bucketCounts(h); got[0] != 3 {
		t.Fatalf("ObserveDuration(50ms) missed the 0.1 bucket: %v", got)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", nil)
	if len(h.bounds) != len(latencyBuckets) {
		t.Fatalf("nil bounds did not default to LatencyBuckets: %v", h.bounds)
	}
}

func TestTrainTelemetry(t *testing.T) {
	r := NewRegistry()
	tel := NewTrainTelemetry(r)
	tel.RecordEpoch(0.7, 0.8, 2*time.Second, 5, 40, 1, 0)
	tel.RecordEpoch(0.6, nan(), time.Second, 5, 40, 0, 2)
	if tel.Epochs.Value() != 2 || tel.Steps.Value() != 10 || tel.Instances.Value() != 80 {
		t.Fatalf("epochs=%d steps=%d instances=%d", tel.Epochs.Value(), tel.Steps.Value(), tel.Instances.Value())
	}
	if tel.SkippedInstances.Value() != 1 || tel.DroppedSteps.Value() != 2 {
		t.Fatalf("skipped=%d dropped=%d", tel.SkippedInstances.Value(), tel.DroppedSteps.Value())
	}
	if tel.Loss.Value() != 0.6 {
		t.Fatalf("loss gauge = %v", tel.Loss.Value())
	}
	// A NaN validation loss must not clobber the last real value.
	if tel.ValidLoss.Value() != 0.8 {
		t.Fatalf("valid loss gauge = %v", tel.ValidLoss.Value())
	}
	if n := tel.EpochSeconds.Count(); n != 2 {
		t.Fatalf("epoch histogram count = %d", n)
	}
}

func nan() float64 { var z float64; return z / z }

// TestConcurrentExactTotals hammers every metric type from many goroutines
// and checks the totals exactly — the lock-free paths must not lose updates.
// CI runs this package under -race.
func TestConcurrentExactTotals(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	r := NewRegistry()
	c := r.Counter("c_total", "")
	v := r.CounterVec("v_total", "", "kind")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", []float64{0.5, 1.5})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A concurrent scraper: rendering while writers run must be safe and
	// every observed counter value monotone.
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			if now := c.Value(); now < last {
				t.Errorf("counter went backwards: %d -> %d", last, now)
				return
			} else {
				last = now
			}
		}
	}()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := "even"
			if id%2 == 1 {
				lbl = "odd"
			}
			for j := 0; j < perG; j++ {
				c.Inc()
				v.With(lbl).Inc()
				g.Add(1)
				h.Observe(1) // integral values keep the float sum exact
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	total := int64(goroutines * perG)
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if Total(v) != total || v.With("even").Value() != total/2 || v.With("odd").Value() != total/2 {
		t.Fatalf("vec total=%d even=%d odd=%d", Total(v), v.With("even").Value(), v.With("odd").Value())
	}
	if g.Value() != float64(total) {
		t.Fatalf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total || h.Sum() != float64(total) {
		t.Fatalf("histogram count=%d sum=%v, want %d", h.Count(), h.Sum(), total)
	}
	var bucketSum int64
	for _, n := range bucketCounts(h) {
		bucketSum += n
	}
	if bucketSum != total {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, total)
	}
}

// TestHistogramVec covers the labeled-histogram family: per-value isolation,
// idempotent With, eager series creation, label-value ordering and exact totals
// under concurrent observation from many goroutines.
func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("hv_seconds", "by version", "version", []float64{1, 2})
	if hv.With("a") != hv.With("a") {
		t.Fatal("With not idempotent")
	}
	hv.With("b") // eager creation: must appear in the exposition at zero

	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				hv.With("a").Observe(1)
			}
		}()
	}
	wg.Wait()

	if a := hv.With("a"); a.Count() != goroutines*perG || a.Sum() != float64(goroutines*perG) {
		t.Fatalf("labeled histogram count=%d sum=%v", a.Count(), a.Sum())
	}
	if n := hv.With("b").Count(); n != 0 {
		t.Fatalf("untouched label observed %d", n)
	}

	want := "# HELP hv_seconds by version\n" +
		"# TYPE hv_seconds histogram\n" +
		`hv_seconds_bucket{version="a",le="1"} 40000` + "\n" +
		`hv_seconds_bucket{version="a",le="2"} 40000` + "\n" +
		`hv_seconds_bucket{version="a",le="+Inf"} 40000` + "\n" +
		`hv_seconds_sum{version="a"} 40000` + "\n" +
		`hv_seconds_count{version="a"} 40000` + "\n" +
		`hv_seconds_bucket{version="b",le="1"} 0` + "\n" +
		`hv_seconds_bucket{version="b",le="2"} 0` + "\n" +
		`hv_seconds_bucket{version="b",le="+Inf"} 0` + "\n" +
		`hv_seconds_sum{version="b"} 0` + "\n" +
		`hv_seconds_count{version="b"} 0` + "\n"
	if got := exposition(t, r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// hotPath is the metric work of one served request, each op on a series
// that already exists.
func hotPath() []struct {
	name string
	op   func()
} {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	v := r.CounterVec("v_total", "", "status")
	v.With("ok")
	h := r.Histogram("h_seconds", "", nil)
	hv := r.HistogramVec("hv_seconds", "", "version", nil)
	hv.With("v1")
	g := r.Gauge("g", "")
	return []struct {
		name string
		op   func()
	}{
		{"Counter.Inc", c.Inc},
		{"CounterVec.With.Inc", func() { v.With("ok").Inc() }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"HistogramVec.With.Observe", func() { hv.With("v1").Observe(0.003) }},
		{"Gauge.Add", func() { g.Add(1) }},
	}
}

// TestHotPathZeroAllocs: updating an existing series never allocates.
func TestHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the plain build's under the race detector")
	}
	for _, p := range hotPath() {
		if n := testing.AllocsPerRun(100, p.op); n != 0 {
			t.Errorf("%s allocates %v times per op, want 0", p.name, n)
		}
	}
}

func BenchmarkMetricHotPath(b *testing.B) {
	for _, p := range hotPath() {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.op()
			}
		})
	}
}
