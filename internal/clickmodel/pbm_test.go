package clickmodel

import (
	"math"
	"math/rand"
	"testing"
)

func testPBM(lambda float64) *PBM {
	rel := map[int]float64{0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2}
	cover := map[int][]float64{
		0: {1, 0}, 1: {1, 0}, 2: {0, 1}, 3: {0, 1},
	}
	return &PBM{
		Lambda:      lambda,
		Relevance:   func(_, v int) float64 { return rel[v] },
		DivWeight:   func(int) []float64 { return []float64{0.5, 0.5} },
		Cover:       func(v int) []float64 { return cover[v] },
		Topics:      2,
		Examination: DefaultExamination(4, 0.7),
	}
}

func TestPBMGamma(t *testing.T) {
	p := testPBM(1)
	if p.gamma(0) != 1 {
		t.Fatalf("gamma(0) = %v", p.gamma(0))
	}
	if p.gamma(1) >= p.gamma(0) {
		t.Fatal("examination should decay with position")
	}
	if p.gamma(99) != p.gamma(3) {
		t.Fatal("out-of-range gamma should reuse the last entry")
	}
	empty := &PBM{}
	if empty.gamma(0) != 1 {
		t.Fatal("empty examination should default to 1")
	}
}

func TestPBMAttractionMatchesDCM(t *testing.T) {
	// The attraction model is shared with the DCM by construction.
	p := testPBM(0.5)
	d := testDCM(0.5)
	list := []int{0, 2, 1, 3}
	pa := p.attractions(0, list)
	da := d.Attractions(0, list)
	for k := range list {
		if math.Abs(pa[k]-da[k]) > 1e-12 {
			t.Fatalf("attraction mismatch at %d: %v vs %v", k, pa[k], da[k])
		}
	}
}

func TestPBMExpectedClicksMatchesSimulation(t *testing.T) {
	p := testPBM(0.7)
	list := []int{0, 2, 1, 3}
	exp := p.ExpectedClicks(0, list)
	rng := rand.New(rand.NewSource(3))
	const n = 100000
	counts := make([]float64, len(list))
	for i := 0; i < n; i++ {
		for k, c := range p.Simulate(0, list, rng) {
			if c {
				counts[k]++
			}
		}
	}
	for k := range list {
		if math.Abs(counts[k]/n-exp[k]) > 0.01 {
			t.Fatalf("position %d: simulated %v vs expected %v", k, counts[k]/n, exp[k])
		}
	}
}

func TestPBMPositionDecayRewardsGoodOrder(t *testing.T) {
	// Placing the most attractive item first must increase total expected
	// clicks under a decaying examination curve.
	p := testPBM(1)
	good := p.ExpectedClicks(0, []int{0, 1, 2, 3})
	bad := p.ExpectedClicks(0, []int{3, 2, 1, 0})
	var sg, sb float64
	for k := range good {
		sg += good[k]
		sb += bad[k]
	}
	if sg <= sb {
		t.Fatalf("descending order %v not better than ascending %v", sg, sb)
	}
}

func TestDefaultExamination(t *testing.T) {
	g := DefaultExamination(5, 1)
	if g[0] != 1 || math.Abs(g[4]-0.2) > 1e-12 {
		t.Fatalf("examination curve %v", g)
	}
}

// Simulate draws one PBM click realization.
func (p *PBM) Simulate(user int, list []int, rng *rand.Rand) []bool {
	phi := p.attractions(user, list)
	clicks := make([]bool, len(list))
	for k := range list {
		clicks[k] = rng.Float64() < p.gamma(k)*phi[k]
	}
	return clicks
}
