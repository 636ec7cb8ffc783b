package topics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randCover(rng *rand.Rand, n, m int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		c := make([]float64, m)
		for j := range c {
			c[j] = rng.Float64()
		}
		out[i] = c
	}
	return out
}

func TestCoverageBasic(t *testing.T) {
	cover := [][]float64{{1, 0}, {0, 0.5}}
	c := Coverage(cover, 2)
	if c[0] != 1 || math.Abs(c[1]-0.5) > 1e-12 {
		t.Fatalf("Coverage = %v", c)
	}
	if got := CoverageTotal(cover, 2); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("CoverageTotal = %v", got)
	}
}

func TestCoverageEmpty(t *testing.T) {
	c := Coverage(nil, 3)
	for _, v := range c {
		if v != 0 {
			t.Fatalf("empty coverage %v", c)
		}
	}
}

func TestCoverageWrongDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong topic dimension did not panic")
		}
	}()
	Coverage([][]float64{{0.5}}, 2)
}

// Property: coverage is monotone — adding an item never decreases any
// component — and bounded in [0, 1].
func TestCoverageMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(5)
		set := randCover(rng, 1+rng.Intn(6), m)
		base := Coverage(set, m)
		extended := Coverage(append(set, randCover(rng, 1, m)...), m)
		for j := 0; j < m; j++ {
			if extended[j] < base[j]-1e-12 || extended[j] > 1+1e-12 || base[j] < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: coverage is submodular — the gain of adding an item to a
// superset never exceeds the gain of adding it to a subset.
func TestCoverageSubmodularProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		small := randCover(rng, 1+rng.Intn(4), m)
		extra := randCover(rng, 1+rng.Intn(3), m)
		big := append(append([][]float64{}, small...), extra...)
		v := randCover(rng, 1, m)[0]
		gainSmall := CoverageTotal(append(append([][]float64{}, small...), v), m) - CoverageTotal(small, m)
		gainBig := CoverageTotal(append(append([][]float64{}, big...), v), m) - CoverageTotal(big, m)
		return gainBig <= gainSmall+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalDiversityMatchesDefinition(t *testing.T) {
	// Eq. (5): d_R(R(i)) = c(R) − c(R∖{R(i)}), checked against the naive
	// leave-one-out computation.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(5)
		n := 1 + rng.Intn(8)
		cover := randCover(rng, n, m)
		fast := MarginalDiversity(cover, m)
		full := Coverage(cover, m)
		for i := 0; i < n; i++ {
			without := make([][]float64, 0, n-1)
			without = append(without, cover[:i]...)
			without = append(without, cover[i+1:]...)
			cwo := Coverage(without, m)
			for j := 0; j < m; j++ {
				want := full[j] - cwo[j]
				if math.Abs(fast[i][j]-want) > 1e-9 {
					t.Fatalf("trial %d item %d topic %d: fast %v naive %v", trial, i, j, fast[i][j], want)
				}
			}
		}
	}
}

func TestMarginalDiversityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		cover := randCover(rng, 1+rng.Intn(6), m)
		for _, d := range MarginalDiversity(cover, m) {
			for _, v := range d {
				if v < -1e-12 || v > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalDiversityEmpty(t *testing.T) {
	if got := MarginalDiversity(nil, 3); len(got) != 0 {
		t.Fatalf("empty marginal diversity = %v", got)
	}
}

func TestIncrementalCoverageMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := 4
	cover := randCover(rng, 6, m)
	ic := NewIncrementalCoverage(m)
	for i, tau := range cover {
		// Gain must equal the batch coverage difference.
		before := Coverage(cover[:i], m)
		after := Coverage(cover[:i+1], m)
		gain := ic.Gain(tau)
		var wantTotal float64
		for j := 0; j < m; j++ {
			want := after[j] - before[j]
			if math.Abs(gain[j]-want) > 1e-9 {
				t.Fatalf("item %d topic %d: incremental gain %v, batch %v", i, j, gain[j], want)
			}
			wantTotal += want
		}
		if math.Abs(ic.GainTotal(tau)-wantTotal) > 1e-9 {
			t.Fatalf("GainTotal mismatch at %d", i)
		}
		ic.Add(tau)
	}
	final := Coverage(cover, m)
	for j, v := range ic.Coverage() {
		if math.Abs(v-final[j]) > 1e-9 {
			t.Fatalf("final coverage mismatch at topic %d", j)
		}
	}
}

func TestSplitByTopicBinary(t *testing.T) {
	cover := map[int][]float64{
		0: {1, 0}, 1: {0, 1}, 2: {1, 0}, 3: {1, 0},
	}
	hist := []int{0, 1, 2, 3}
	seqs := SplitByTopic(hist, func(v int) []float64 { return cover[v] }, 2, 10, nil)
	if len(seqs[0]) != 3 || len(seqs[1]) != 1 {
		t.Fatalf("split = %v", seqs)
	}
	// Time order preserved.
	if seqs[0][0] != 0 || seqs[0][2] != 3 {
		t.Fatalf("topic 0 order = %v", seqs[0])
	}
}

func TestSplitByTopicTruncation(t *testing.T) {
	hist := make([]int, 20)
	for i := range hist {
		hist[i] = i
	}
	seqs := SplitByTopic(hist, func(int) []float64 { return []float64{1} }, 1, 5, nil)
	if len(seqs[0]) != 5 {
		t.Fatalf("truncated length %d, want 5", len(seqs[0]))
	}
	// Keeps the most recent entries.
	if seqs[0][0] != 15 || seqs[0][4] != 19 {
		t.Fatalf("kept %v, want the last five", seqs[0])
	}
}

func TestSplitByTopicFractionalSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hist := make([]int, 2000)
	seqs := SplitByTopic(hist, func(int) []float64 { return []float64{0.3} }, 1, 1<<30, rng)
	frac := float64(len(seqs[0])) / 2000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("τ=0.3 membership rate %v", frac)
	}
}

func TestPreferenceFromHistory(t *testing.T) {
	cover := map[int][]float64{0: {1, 0}, 1: {0, 1}}
	pref := PreferenceFromHistory([]int{0, 0, 0, 1}, func(v int) []float64 { return cover[v] }, 2)
	if math.Abs(pref[0]-0.75) > 1e-12 || math.Abs(pref[1]-0.25) > 1e-12 {
		t.Fatalf("pref = %v", pref)
	}
	// Empty history → uniform.
	uni := PreferenceFromHistory(nil, func(v int) []float64 { return cover[v] }, 2)
	if math.Abs(uni[0]-0.5) > 1e-12 {
		t.Fatalf("empty-history pref = %v", uni)
	}
}

func TestGMMRecoverySeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	centers := [][]float64{{-5, -5}, {5, 5}, {5, -5}}
	var pts [][]float64
	labels := make([]int, 0)
	for c, ctr := range centers {
		for i := 0; i < 60; i++ {
			pts = append(pts, []float64{ctr[0] + rng.NormFloat64()*0.4, ctr[1] + rng.NormFloat64()*0.4})
			labels = append(labels, c)
		}
	}
	gmm := FitGMM(pts, 3, 30, rng)
	// Cluster assignments must be consistent within a true cluster.
	assign := make(map[int]int)
	errors := 0
	for i, p := range pts {
		a := gmm.Assign(p)
		if want, ok := assign[labels[i]]; ok {
			if a != want {
				errors++
			}
		} else {
			assign[labels[i]] = a
		}
	}
	if errors > 5 {
		t.Fatalf("GMM misassigned %d/180 points on well-separated clusters", errors)
	}
	// Distinct clusters map to distinct components.
	seen := map[int]bool{}
	for _, a := range assign {
		if seen[a] {
			t.Fatal("two true clusters mapped to one component")
		}
		seen[a] = true
	}
}

func TestGMMResponsibilitiesAreDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randCover(rng, 50, 3)
	gmm := FitGMM(pts, 4, 10, rng)
	for _, p := range pts {
		r := gmm.Responsibilities(p)
		var sum float64
		for _, v := range r {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("responsibility %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("responsibilities sum to %v", sum)
		}
	}
}

func TestGMMEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FitGMM with no points did not panic")
		}
	}()
	FitGMM(nil, 2, 5, rand.New(rand.NewSource(1)))
}

// TestWeightedGainMatchesDot: WeightedGain is mat.Dot's sum over Gain, bit
// for bit — full and short coverage rows, after items were added.
func TestWeightedGainMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m = 5
	for trial := 0; trial < 200; trial++ {
		ic := NewIncrementalCoverage(m)
		for _, tau := range randCover(rng, rng.Intn(4), m) {
			ic.Add(tau)
		}
		w := randCover(rng, 1, m)[0]
		tau := randCover(rng, 1, 1+rng.Intn(m))[0]
		g := ic.Gain(tau)
		var want float64
		for j := range w { // mat.Dot's loop
			want += w[j] * g[j]
		}
		if got := ic.WeightedGain(w, tau); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: WeightedGain %v, Dot over Gain %v", trial, got, want)
		}
		if into := ic.GainInto(append([]float64(nil), w...), tau); !equalBits(into, g) {
			t.Fatalf("trial %d: GainInto %v, Gain %v", trial, into, g)
		}
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Coverage computes the probabilistic coverage vector c(G) of a set of
// items, where cover[i] is the m-dimensional topic coverage τ of the i-th
// item: c_j(G) = 1 − Π_{v∈G} (1 − τ_v^j). The result has length m.
//
// Coverage is monotone and submodular in G, the properties the paper's
// greedy analysis (Theorem 5.1) relies on; both are property-tested.
func Coverage(cover [][]float64, m int) []float64 {
	c := make([]float64, m)
	uncovered(c, cover)
	for j, r := range c {
		c[j] = 1 - r
	}
	return c
}

// Coverage returns the current coverage vector c(G).
func (ic *IncrementalCoverage) Coverage() []float64 {
	c := make([]float64, ic.m)
	for j, r := range ic.remain {
		c[j] = 1 - r
	}
	return c
}

// Assign returns the most likely component for p.
func (g *GMM) Assign(p []float64) int {
	r := g.Responsibilities(p)
	best, bestV := 0, r[0]
	for c, v := range r[1:] {
		if v > bestV {
			best, bestV = c+1, v
		}
	}
	return best
}
