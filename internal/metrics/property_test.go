package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// qc runs f as a testing/quick property with a fixed iteration budget; each
// invocation gets an independent seed so failures print a reproducible input.
func qc(t *testing.T, f func(seed int64) bool) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randMatrix(rng *rand.Rand, rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.Float64()
		}
	}
	return m
}

func permuted(rng *rand.Rand, m [][]float64) [][]float64 {
	p := append([][]float64(nil), m...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// ILD over the full list is a mean over unordered pairs: permuting the items
// must not change it, and it is always non-negative.
func TestILDPermutationInvariant(t *testing.T) {
	qc(t, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 2+rng.Intn(8), 1+rng.Intn(5)
		feats := randMatrix(rng, n, d)
		a := ILDAtK(feats, n)
		b := ILDAtK(permuted(rng, feats), n)
		return a >= 0 && math.Abs(a-b) < 1e-9
	})
}

// A list of identical items has zero spread at every cutoff.
func TestILDIdenticalItemsZero(t *testing.T) {
	qc(t, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 2+rng.Intn(8), 1+rng.Intn(5)
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		feats := make([][]float64, n)
		for i := range feats {
			feats[i] = row
		}
		for k := 0; k <= n; k++ {
			if ILDAtK(feats, k) != 0 {
				return false
			}
		}
		return true
	})
}

// div@k over the full list is Eq. (4)'s coverage, a product over items per
// topic — reordering the list must leave it unchanged.
func TestDivPermutationInvariant(t *testing.T) {
	qc(t, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(8), 1+rng.Intn(6)
		cover := randMatrix(rng, n, m)
		a := DivAtK(cover, m, n)
		b := DivAtK(permuted(rng, cover), m, n)
		return math.Abs(a-b) < 1e-9
	})
}

// α-NDCG is a clamped ratio to the greedy ideal: always in [0, 1], and a
// list already in greedy-ideal order scores exactly 1 (its α-DCG IS the
// normalizer).
func TestAlphaNDCGRange(t *testing.T) {
	qc(t, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(8), 1+rng.Intn(6)
		rel := randMatrix(rng, n, m)
		alpha := rng.Float64()
		k := 1 + rng.Intn(n)
		v := AlphaNDCGAtK(rel, alpha, k)
		if v < 0 || v > 1 {
			return false
		}
		ideal := greedyIdeal(rel, alpha, k)
		return math.Abs(AlphaNDCGAtK(ideal, alpha, k)-1) < 1e-9
	})
}

// With α = 0 novelty never decays, so the gain of an item is just its summed
// relevance and α-DCG must agree with plain DCG over those sums.
func TestAlphaDCGDegeneratesToDCG(t *testing.T) {
	qc(t, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(8), 1+rng.Intn(6)
		rel := randMatrix(rng, n, m)
		k := 1 + rng.Intn(n)
		sums := make([]float64, n)
		for i, r := range rel {
			for _, v := range r {
				sums[i] += v
			}
		}
		return math.Abs(alphaDCGAtK(rel, 0, k)-dcgAtK(sums, k)) < 1e-9
	})
}

// Repeating one fully relevant item: with α ∈ (0,1) the second copy earns
// strictly less than a fresh topic would, so a two-topic spread must beat
// the repeat under α-DCG.
func TestAlphaDCGRewardsSpread(t *testing.T) {
	qc(t, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := 0.05 + 0.9*rng.Float64()
		repeat := [][]float64{{1, 0}, {1, 0}}
		spread := [][]float64{{1, 0}, {0, 1}}
		return alphaDCGAtK(spread, alpha, 2) > alphaDCGAtK(repeat, alpha, 2)
	})
}

// ILDAtK must clamp the cutoff: k beyond the list length scores like the
// full list, and k < 2 has no pairs.
func TestILDCutoffClamps(t *testing.T) {
	feats := [][]float64{{0, 0}, {3, 4}, {6, 8}}
	if got := ILDAtK(feats, 10); got != ILDAtK(feats, 3) {
		t.Fatalf("k>len: got %v, want full-list value", got)
	}
	if got := ILDAtK(feats, 1); got != 0 {
		t.Fatalf("k=1: got %v, want 0", got)
	}
	// 3 pairs with distances 5, 10, 5 → mean 20/3.
	if got, want := ILDAtK(feats, 3), 20.0/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ILD = %v, want %v", got, want)
	}
}
