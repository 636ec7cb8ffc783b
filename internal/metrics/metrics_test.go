package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClickAtK(t *testing.T) {
	exp := []float64{0.5, 0.3, 0.2, 0.1}
	if got := ClickAtK(exp, 2); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("click@2 = %v", got)
	}
	if got := ClickAtK(exp, 10); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("click@10 beyond length = %v", got)
	}
	if ClickAtK(nil, 5) != 0 {
		t.Fatal("empty clicks should be 0")
	}
}

func TestNDCGPerfectAndReversed(t *testing.T) {
	sorted := []float64{3, 2, 1, 0}
	if got := NDCGAtK(sorted, 4); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect ndcg = %v", got)
	}
	reversed := []float64{0, 1, 2, 3}
	got := NDCGAtK(reversed, 4)
	if got >= 1 || got <= 0 {
		t.Fatalf("reversed ndcg = %v, want in (0,1)", got)
	}
	if NDCGAtK([]float64{0, 0}, 2) != 0 {
		t.Fatal("all-zero gains should give 0")
	}
	if NDCGAtK(nil, 5) != 0 {
		t.Fatal("empty gains should give 0")
	}
}

// Property: ndcg ∈ [0,1] and equals 1 for non-increasing gains.
func TestNDCGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		g := make([]float64, n)
		for i := range g {
			g[i] = rng.Float64()
		}
		v := NDCGAtK(g, n)
		if v < 0 || v > 1+1e-12 {
			return false
		}
		// Sorted copy must score exactly 1.
		sorted := append([]float64(nil), g...)
		sortDesc(sorted)
		return math.Abs(NDCGAtK(sorted, n)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivAtK(t *testing.T) {
	cover := [][]float64{{1, 0}, {1, 0}, {0, 1}}
	if got := DivAtK(cover, 2, 2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("div@2 = %v (duplicate topic should not add)", got)
	}
	if got := DivAtK(cover, 2, 3); math.Abs(got-2) > 1e-12 {
		t.Fatalf("div@3 = %v", got)
	}
}

func TestRevAtK(t *testing.T) {
	exp := []float64{0.5, 0.5}
	bids := []float64{2, 4}
	if got := RevAtK(exp, bids, 2); math.Abs(got-3) > 1e-12 {
		t.Fatalf("rev@2 = %v", got)
	}
	if got := RevAtK(exp, bids, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rev@1 = %v", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if math.Abs(variance(xs)-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v", variance(xs))
	}
	if Mean(nil) != 0 || variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs mishandled")
	}
}

func TestWelchTTestSeparatedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = 1 + rng.NormFloat64()*0.1
		b[i] = 0 + rng.NormFloat64()*0.1
	}
	res := WelchTTest(a, b)
	if res.P > 1e-6 {
		t.Fatalf("clearly separated samples gave p=%v", res.P)
	}
	if res.T < 0 {
		t.Fatal("t statistic should be positive for a > b")
	}
}

func TestWelchTTestIdenticalDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Under H0, p-values should rarely be tiny.
	small := 0
	for trial := 0; trial < 50; trial++ {
		a := make([]float64, 40)
		b := make([]float64, 40)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		if WelchTTest(a, b).P < 0.01 {
			small++
		}
	}
	if small > 5 {
		t.Fatalf("%d/50 false positives at p<0.01", small)
	}
}

func TestPairedTTest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		base := rng.NormFloat64() * 5 // large shared variance
		a[i] = base + 0.2 + rng.NormFloat64()*0.05
		b[i] = base + rng.NormFloat64()*0.05
	}
	paired := PairedTTest(a, b)
	welch := WelchTTest(a, b)
	if paired.P > 0.001 {
		t.Fatalf("paired test missed a consistent difference: p=%v", paired.P)
	}
	// The paired test must be far more sensitive here.
	if paired.P > welch.P {
		t.Fatalf("paired p=%v not below welch p=%v despite pairing structure", paired.P, welch.P)
	}
}

func TestPairedTTestDegenerate(t *testing.T) {
	if got := PairedTTest([]float64{1, 2}, []float64{1}); got.P != 1 {
		t.Fatal("length mismatch should give p=1")
	}
	if got := PairedTTest([]float64{1, 1, 1}, []float64{1, 1, 1}); got.P != 1 {
		t.Fatal("identical samples should give p=1")
	}
	res := PairedTTest([]float64{2, 2, 2}, []float64{1, 1, 1})
	if res.P != 0 {
		t.Fatalf("constant difference should give p=0, got %v", res.P)
	}
}

func TestStudentPAgainstKnownValues(t *testing.T) {
	// Reference values from standard t tables: P(|T| > 2.086) ≈ 0.05 at
	// df=20; P(|T| > 1.96) ≈ 0.05 at df=∞ (use df=10000).
	cases := []struct {
		t, df, want, tol float64
	}{
		{2.086, 20, 0.05, 0.002},
		{1.96, 10000, 0.05, 0.002},
		{0, 10, 1.0, 1e-9},
		{12.706, 1, 0.05, 0.002},
	}
	for _, c := range cases {
		if got := studentTwoSidedP(c.t, c.df); math.Abs(got-c.want) > c.tol {
			t.Fatalf("P(|T|>%v; df=%v) = %v, want ≈%v", c.t, c.df, got, c.want)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-9 {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got := regIncBeta(2, 3, 0.3) + regIncBeta(3, 2, 0.7); math.Abs(got-1) > 1e-9 {
		t.Fatalf("symmetry violated: %v", got)
	}
	if regIncBeta(2, 2, 0) != 0 || regIncBeta(2, 2, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
}
