package topics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allDivFns() []DiversityFunction {
	return []DiversityFunction{probCoverage{}, saturatedCoverage{}, facilityLocation{}}
}

// marginalRows runs fn.Marginal into a table filled with NaN first, fails
// the test if any NaN survives (Marginal must write every element of a
// scratch table whose contents are unspecified), and returns its rows.
func marginalRows(t *testing.T, fn DiversityFunction, cover [][]float64, m int) [][]float64 {
	t.Helper()
	flat := make([]float64, len(cover)*m)
	for k := range flat {
		flat[k] = math.NaN()
	}
	fn.Marginal(flat, cover, m)
	rows := make([][]float64, len(cover))
	for i := range rows {
		rows[i] = flat[i*m : (i+1)*m]
		for j, v := range rows[i] {
			if math.IsNaN(v) {
				t.Fatalf("%s: Marginal left item %d topic %d unwritten", fn.Name(), i, j)
			}
		}
	}
	return rows
}

// TestMarginalWritesEveryElement: on empty, one-item and 20-item lists, and
// on facility-location ties (equal maxima, all-zero topics), no element of
// the table keeps what the scratch held.
func TestMarginalWritesEveryElement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ties := [][]float64{{0.5, 0, 1}, {0.5, 0, 1}, {0.2, 0, 1}}
	for _, fn := range allDivFns() {
		for _, l := range []int{0, 1, 20} {
			if rows := marginalRows(t, fn, randCover(rng, l, 5), 5); len(rows) != l {
				t.Fatalf("%s: %d rows for %d items", fn.Name(), len(rows), l)
			}
		}
		marginalRows(t, fn, ties, 3)
	}
	if rows := marginalRows(t, facilityLocation{}, ties, 3); rows[0][0] != 0 || rows[1][0] != 0 || rows[0][1] != 0 || rows[0][2] != 0 {
		t.Fatalf("tied maxima raise nothing when left out, got %v", rows)
	}
}

func TestDiversityFunctionByName(t *testing.T) {
	for _, name := range []string{"", "prob-coverage", "saturated-coverage", "facility-location"} {
		if _, err := DiversityFunctionByName(name); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := DiversityFunctionByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestMarginalMatchesLeaveOneOut verifies Marginal against the defining
// identity f(R) − f(R∖{i}) computed through Total, for every function.
func TestMarginalMatchesLeaveOneOut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, fn := range allDivFns() {
		for trial := 0; trial < 25; trial++ {
			m := 1 + rng.Intn(4)
			n := 1 + rng.Intn(7)
			cover := randCover(rng, n, m)
			marg := marginalRows(t, fn, cover, m)
			full := fn.Total(cover, m)
			for i := 0; i < n; i++ {
				without := make([][]float64, 0, n-1)
				without = append(without, cover[:i]...)
				without = append(without, cover[i+1:]...)
				var sum float64
				for _, v := range marg[i] {
					sum += v
				}
				want := full - fn.Total(without, m)
				if math.Abs(sum-want) > 1e-9 {
					t.Fatalf("%s: item %d marginal %v vs leave-one-out %v", fn.Name(), i, sum, want)
				}
			}
		}
	}
}

// TestDivFnMonotone: adding an item never decreases Total.
func TestDivFnMonotone(t *testing.T) {
	for _, fn := range allDivFns() {
		fn := fn
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := 1 + rng.Intn(4)
			set := randCover(rng, 1+rng.Intn(5), m)
			extended := append(append([][]float64{}, set...), randCover(rng, 1, m)...)
			return fn.Total(extended, m) >= fn.Total(set, m)-1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", fn.Name(), err)
		}
	}
}

// TestDivFnSubmodular: the gain of an item shrinks as the set grows.
func TestDivFnSubmodular(t *testing.T) {
	for _, fn := range allDivFns() {
		fn := fn
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := 1 + rng.Intn(4)
			small := randCover(rng, 1+rng.Intn(4), m)
			big := append(append([][]float64{}, small...), randCover(rng, 1+rng.Intn(3), m)...)
			v := randCover(rng, 1, m)[0]
			gainSmall := fn.Total(append(append([][]float64{}, small...), v), m) - fn.Total(small, m)
			gainBig := fn.Total(append(append([][]float64{}, big...), v), m) - fn.Total(big, m)
			return gainBig <= gainSmall+1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", fn.Name(), err)
		}
	}
}

func TestMarginalNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, fn := range allDivFns() {
		for trial := 0; trial < 20; trial++ {
			m := 1 + rng.Intn(4)
			cover := randCover(rng, 1+rng.Intn(6), m)
			for _, row := range marginalRows(t, fn, cover, m) {
				for _, v := range row {
					if v < -1e-12 {
						t.Fatalf("%s: negative marginal %v", fn.Name(), v)
					}
				}
			}
		}
	}
}

func TestFacilityLocationSecondBest(t *testing.T) {
	// Removing the per-topic leader must fall back to the runner-up.
	cover := [][]float64{{0.9, 0.1}, {0.5, 0.8}, {0.2, 0.7}}
	marg := marginalRows(t, facilityLocation{}, cover, 2)
	if math.Abs(marg[0][0]-(0.9-0.5)) > 1e-12 {
		t.Fatalf("leader marginal %v, want 0.4", marg[0][0])
	}
	if marg[2][0] != 0 || math.Abs(marg[1][1]-(0.8-0.7)) > 1e-12 {
		t.Fatalf("marginals %v", marg)
	}
}

func TestSaturatedCoverageBetaDefault(t *testing.T) {
	s := saturatedCoverage{}
	if s.beta() != 4 {
		t.Fatalf("default beta %v", s.beta())
	}
	s2 := saturatedCoverage{Beta: 9}
	if s2.beta() != 9 {
		t.Fatalf("explicit beta %v", s2.beta())
	}
	// Saturation: the second identical item adds strictly less.
	tau := [][]float64{{0.5}}
	one := s.Total(tau, 1)
	two := s.Total([][]float64{{0.5}, {0.5}}, 1)
	if two-one >= one {
		t.Fatalf("no saturation: first %v second %v", one, two-one)
	}
}

// TestMarginalAllocs: Marginal runs on every scoring call and every training
// step, into the caller's scratch, so it allocates nothing however long the
// list. MarginalDiversity, the allocating convenience, cuts its rows from one
// backing slice, and rows must not be able to grow into each other.
func TestMarginalAllocs(t *testing.T) {
	cover := randCover(rand.New(rand.NewSource(5)), 20, 5)
	dst := make([]float64, 20*5)
	for _, fn := range allDivFns() {
		if n := testing.AllocsPerRun(50, func() { fn.Marginal(dst, cover, 5) }); n != 0 {
			t.Errorf("%s: Marginal of a 20-item list makes %v allocations, want 0", fn.Name(), n)
		}
	}
	for i, row := range MarginalDiversity(cover, 5) {
		if len(row) != 5 || cap(row) != 5 {
			t.Fatalf("MarginalDiversity row %d has len %d cap %d, want 5 and 5", i, len(row), cap(row))
		}
	}
}
