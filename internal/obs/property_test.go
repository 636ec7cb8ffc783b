package obs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHistogramProperties checks the histogram invariants over random
// observation sets (testing/quick):
//
//  1. per-bucket counts sum to the total count;
//  2. each observation lands in the unique bucket whose bound interval
//     contains it (le semantics: first bound >= v);
//  3. the cumulative rendering is monotone non-decreasing and ends at count;
//  4. the sum equals the sequential float sum of the observations.
func TestHistogramProperties(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bounds := []float64{0.01, 0.1, 1, 10}
		r := NewRegistry()
		h := r.Histogram("p_seconds", "", bounds)
		want := make([]int64, len(bounds)+1)
		var wantSum float64
		for i := 0; i < int(n); i++ {
			// Log-uniform across and beyond the bucket range, including
			// exact bound hits.
			v := math.Pow(10, rng.Float64()*6-4) // 1e-4 .. 1e2
			if rng.Intn(8) == 0 {
				v = bounds[rng.Intn(len(bounds))]
			}
			h.Observe(v)
			wantSum += v
			b := 0
			for b < len(bounds) && v > bounds[b] {
				b++
			}
			want[b]++
		}
		var bucketSum, cum int64
		prev := int64(-1)
		for i, c := range bucketCounts(h) {
			if c != want[i] {
				return false
			}
			bucketSum += c
			cum += c
			if cum < prev {
				return false
			}
			prev = cum
		}
		return bucketSum == h.Count() && cum == h.Count() && h.Sum() == wantSum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGaugeAddProperty: a sequence of Adds must equal the sequential float
// sum regardless of magnitudes (the CAS loop preserves ordinary float64
// addition semantics on a single goroutine).
func TestGaugeAddProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		var g Gauge
		var want float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			g.Add(v)
			want += v
		}
		return g.Value() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
