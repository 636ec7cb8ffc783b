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
	if v.With("a").Value() != 2 || v.With("b").Value() != 2 || v.Total() != 4 {
		t.Fatalf("vec a=%d b=%d total=%d", v.With("a").Value(), v.With("b").Value(), v.Total())
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
// idempotent With, eager series creation at zero, snapshot ordering and the
// text exposition (float samples, unlike CounterVec's integers).
func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("replica_up", "by replica", "replica")
	if gv.With("a") != gv.With("a") {
		t.Fatal("With not idempotent")
	}
	gv.With("b") // eager creation: must appear in the snapshot at zero
	gv.With("a").Set(1)
	gv.With("c").Set(0.5)

	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Kind != kindGauge || snaps[0].Label != "replica" {
		t.Fatalf("snapshot %+v", snaps)
	}
	lg := snaps[0].LabeledGauges
	if len(lg) != 3 || lg[0].Value != "a" || lg[1].Value != "b" || lg[2].Value != "c" {
		t.Fatalf("labeled gauges %+v", lg)
	}
	if lg[0].Gauge != 1 || lg[1].Gauge != 0 || lg[2].Gauge != 0.5 {
		t.Fatalf("labeled gauge values %+v", lg)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`replica_up{replica="a"} 1`,
		`replica_up{replica="b"} 0`,
		`replica_up{replica="c"} 0.5`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Upper bounds are inclusive (Prometheus le semantics): 0.1 lands in the
	// first bucket; 100 lands in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 || s.Sum != 0.05+0.1+0.5+2+100 {
		t.Fatalf("count=%d sum=%v", s.Count, s.Sum)
	}
	h.ObserveDuration(50 * time.Millisecond)
	if got := h.Snapshot(); got.Counts[0] != 3 {
		t.Fatalf("ObserveDuration(50ms) missed the 0.1 bucket: %+v", got)
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
	if s := tel.EpochSeconds.Snapshot(); s.Count != 2 {
		t.Fatalf("epoch histogram count = %d", s.Count)
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
	if v.Total() != total || v.With("even").Value() != total/2 || v.With("odd").Value() != total/2 {
		t.Fatalf("vec total=%d even=%d odd=%d", v.Total(), v.With("even").Value(), v.With("odd").Value())
	}
	if g.Value() != float64(total) {
		t.Fatalf("gauge = %v, want %d", g.Value(), total)
	}
	s := h.Snapshot()
	if s.Count != total || s.Sum != float64(total) {
		t.Fatalf("histogram count=%d sum=%v, want %d", s.Count, s.Sum, total)
	}
	var bucketSum int64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != total {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, total)
	}
}

// TestHistogramVec covers the labeled-histogram family: per-value isolation,
// idempotent With, eager series creation, snapshot ordering and exact totals
// under concurrent observation from many goroutines.
func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("hv_seconds", "by version", "version", []float64{1, 2})
	if hv.With("a") != hv.With("a") {
		t.Fatal("With not idempotent")
	}
	hv.With("b") // eager creation: must appear in the snapshot at zero

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

	if s := hv.With("a").Snapshot(); s.Count != goroutines*perG || s.Sum != float64(goroutines*perG) {
		t.Fatalf("labeled histogram count=%d sum=%v", s.Count, s.Sum)
	}
	if s := hv.With("b").Snapshot(); s.Count != 0 {
		t.Fatalf("untouched label observed %d", s.Count)
	}

	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Kind != kindHistogram || snaps[0].Label != "version" {
		t.Fatalf("snapshot %+v", snaps)
	}
	lh := snaps[0].LabeledHists
	if len(lh) != 2 || lh[0].Value != "a" || lh[1].Value != "b" {
		t.Fatalf("labeled hists %+v", lh)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hv_seconds_bucket{version="a",le="1"} 40000`,
		`hv_seconds_count{version="a"} 40000`,
		`hv_seconds_count{version="b"} 0`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}
