package clickmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/topics"
)

// testDCM builds a small deterministic DCM over 4 items and 2 topics.
func testDCM(lambda float64) *DCM {
	rel := map[int]float64{0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2}
	cover := map[int][]float64{
		0: {1, 0}, 1: {1, 0}, 2: {0, 1}, 3: {0, 1},
	}
	return &DCM{
		Lambda:      lambda,
		Relevance:   func(_, v int) float64 { return rel[v] },
		DivWeight:   func(int) []float64 { return []float64{0.5, 0.5} },
		Cover:       func(v int) []float64 { return cover[v] },
		Termination: []float64{0.5, 0.4, 0.3, 0.2},
		Topics:      2,
	}
}

func TestAttractionsPureRelevance(t *testing.T) {
	d := testDCM(1.0)
	phi := d.Attractions(0, []int{0, 1, 2, 3})
	want := []float64{0.8, 0.6, 0.4, 0.2}
	for i, w := range want {
		if math.Abs(phi[i]-w) > 1e-12 {
			t.Fatalf("phi[%d] = %v, want %v", i, phi[i], w)
		}
	}
}

func TestAttractionsDiversityGain(t *testing.T) {
	d := testDCM(0.5)
	// Items 0,1 share topic 0. The second occurrence of the topic earns no
	// coverage gain, so item 1 placed after 0 has φ = 0.5·0.6 + 0.5·0 = 0.3.
	phi := d.Attractions(0, []int{0, 1, 2})
	if math.Abs(phi[0]-(0.5*0.8+0.5*0.5)) > 1e-12 {
		t.Fatalf("phi[0] = %v", phi[0])
	}
	if math.Abs(phi[1]-0.3) > 1e-12 {
		t.Fatalf("phi[1] = %v, want 0.3 (no diversity gain)", phi[1])
	}
	// Item 2 opens topic 1: full gain.
	if math.Abs(phi[2]-(0.5*0.4+0.5*0.5)) > 1e-12 {
		t.Fatalf("phi[2] = %v", phi[2])
	}
}

func TestAttractionsOrderDependence(t *testing.T) {
	d := testDCM(0.5)
	a := d.Attractions(0, []int{0, 1})
	b := d.Attractions(0, []int{1, 0})
	// Whichever same-topic item is listed first receives the coverage
	// gain; the second receives none.
	if math.Abs(a[0]-0.65) > 1e-9 || math.Abs(a[1]-0.30) > 1e-9 {
		t.Fatalf("list {0,1}: %v", a)
	}
	if math.Abs(b[0]-0.55) > 1e-9 || math.Abs(b[1]-0.40) > 1e-9 {
		t.Fatalf("list {1,0}: %v", b)
	}
}

// Property: attraction probabilities stay in [0, 1] under any weights.
func TestAttractionsBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := rng.Float64()
		d := testDCM(lambda)
		list := rng.Perm(4)
		for _, p := range d.Attractions(0, list) {
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonExtension(t *testing.T) {
	d := testDCM(1)
	if d.epsilon(0) != 0.5 || d.epsilon(3) != 0.2 {
		t.Fatal("Epsilon lookup broken")
	}
	if d.epsilon(10) != 0.2 {
		t.Fatalf("Epsilon beyond slice = %v, want last value", d.epsilon(10))
	}
	empty := &DCM{}
	if empty.epsilon(0) != 0 {
		t.Fatal("empty termination should give 0")
	}
}

func TestExpectedClicksMatchesSimulation(t *testing.T) {
	d := testDCM(0.7)
	list := []int{0, 2, 1, 3}
	exp := d.ExpectedClicks(0, list)
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	counts := make([]float64, len(list))
	for i := 0; i < n; i++ {
		clicks, _ := d.Simulate(0, list, rng)
		for k, c := range clicks {
			if c {
				counts[k]++
			}
		}
	}
	for k := range list {
		mc := counts[k] / n
		if math.Abs(mc-exp[k]) > 0.01 {
			t.Fatalf("position %d: simulated %v vs expected %v", k, mc, exp[k])
		}
	}
}

func TestSimulateTermination(t *testing.T) {
	// ε = 1 everywhere: the session must end at the first click.
	d := testDCM(1)
	d.Termination = []float64{1, 1, 1, 1}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		clicks, left := d.Simulate(0, []int{0, 1, 2, 3}, rng)
		n := 0
		for _, c := range clicks {
			if c {
				n++
			}
		}
		if n > 1 {
			t.Fatal("more than one click with certain termination")
		}
		if n == 1 && left == len(clicks) {
			t.Fatal("clicked but reported full scan")
		}
	}
}

func TestSatisfactionMonotoneInK(t *testing.T) {
	d := testDCM(0.6)
	list := []int{0, 1, 2, 3}
	prev := 0.0
	for k := 1; k <= 4; k++ {
		s := d.Satisfaction(0, list, k)
		if s < prev-1e-12 || s < 0 || s > 1 {
			t.Fatalf("satisfaction not monotone/bounded: k=%d s=%v prev=%v", k, s, prev)
		}
		prev = s
	}
	// k beyond the list length saturates.
	if d.Satisfaction(0, list, 10) != d.Satisfaction(0, list, 4) {
		t.Fatal("satisfaction beyond list length changed")
	}
}

func TestDefaultTermination(t *testing.T) {
	eps := DefaultTermination(10, 0.8, 0.9)
	for i := 1; i < len(eps); i++ {
		if eps[i] > eps[i-1] {
			t.Fatal("termination not non-increasing")
		}
	}
	for _, e := range eps {
		if e < 0.05 || e > 0.95 {
			t.Fatalf("termination %v outside clamp", e)
		}
	}
}

func TestEstimateRecoversAttraction(t *testing.T) {
	// Pure-relevance DCM: the counting estimator must recover per-item
	// attraction within sampling error.
	d := testDCM(1.0)
	rng := rand.New(rand.NewSource(11))
	var logs []Session
	for i := 0; i < 30000; i++ {
		list := rng.Perm(4)
		clicks, _ := d.Simulate(0, list, rng)
		logs = append(logs, Session{User: 0, List: list, Clicks: clicks})
	}
	est := Estimate(logs, 1.0, 2, d.Cover, 4)
	for v, want := range map[int]float64{0: 0.8, 1: 0.6, 2: 0.4, 3: 0.2} {
		if math.Abs(est.Alpha[v]-want) > 0.05 {
			t.Fatalf("alpha[%d] = %v, want ≈%v", v, est.Alpha[v], want)
		}
	}
	// Termination estimates live in (0, 1) and are sane at position 0.
	if est.Eps[0] < 0.3 || est.Eps[0] > 0.7 {
		t.Fatalf("eps[0] = %v, want ≈0.5", est.Eps[0])
	}
}

func TestEstimateRhoImprovesLikelihood(t *testing.T) {
	d := testDCM(0.5)
	rng := rand.New(rand.NewSource(13))
	var logs []Session
	for i := 0; i < 4000; i++ {
		list := rng.Perm(4)
		clicks, _ := d.Simulate(0, list, rng)
		logs = append(logs, Session{User: 0, List: list, Clicks: clicks})
	}
	est := Estimate(logs, 0.5, 2, d.Cover, 4)
	withRho := est.LogLikelihood(logs)
	noRho := &Estimated{Alpha: est.Alpha, Eps: est.Eps, Rho: map[int][]float64{}, Lambda: 0.5, Topics: 2, Cover: d.Cover}
	without := noRho.LogLikelihood(logs)
	if withRho < without {
		t.Fatalf("fitted rho decreased log-likelihood: %v < %v", withRho, without)
	}
	// The fitted ρ should be positive on both topics (truth is 0.5, 0.5).
	rho := est.Rho[0]
	if rho == nil || rho[0] <= 0 || rho[1] <= 0 {
		t.Fatalf("rho = %v, want positive entries", rho)
	}
}

func TestEstimatedSatisfactionBounds(t *testing.T) {
	d := testDCM(0.8)
	rng := rand.New(rand.NewSource(17))
	var logs []Session
	for i := 0; i < 500; i++ {
		list := rng.Perm(4)
		clicks, _ := d.Simulate(0, list, rng)
		logs = append(logs, Session{User: 0, List: list, Clicks: clicks})
	}
	est := Estimate(logs, 0.8, 2, d.Cover, 4)
	for k := 1; k <= 4; k++ {
		s := est.Satisfaction(0, []int{0, 1, 2, 3}, k)
		if s < 0 || s > 1 {
			t.Fatalf("satis@%d = %v", k, s)
		}
	}
}

// fiveTopicDCM is a DCM at the offline round's geometry: 5 topics, 20-item
// lists, items covering one or two topics each.
func fiveTopicDCM() (*DCM, []int) {
	const m, l = 5, 20
	rng := rand.New(rand.NewSource(8))
	cover := make([][]float64, l)
	rel := make([]float64, l)
	for v := range cover {
		cover[v] = make([]float64, m)
		cover[v][v%m] = 0.5 + rng.Float64()/2
		cover[v][(v*3+1)%m] = rng.Float64() / 2
		rel[v] = rng.Float64()
	}
	rho := []float64{0.3, 0.1, 0.25, 0.05, 0.2}
	d := &DCM{
		Lambda:      0.5,
		Relevance:   func(_, v int) float64 { return rel[v] },
		DivWeight:   func(int) []float64 { return rho },
		Cover:       func(v int) []float64 { return cover[v] },
		Termination: []float64{0.5, 0.4, 0.3, 0.2},
		Topics:      m,
	}
	list := rng.Perm(l)
	return d, list
}

// TestAttractionsMatchGainDot: the attractions take ρ̄ᵀζ exactly as
// mat.Dot(ρ̄, Gain(τ)) does, bit for bit, and ExpectedClicks and
// Satisfaction agree with their From forms over one Attractions call.
func TestAttractionsMatchGainDot(t *testing.T) {
	d, list := fiveTopicDCM()
	ic := topics.NewIncrementalCoverage(d.Topics)
	phi := d.Attractions(0, list)
	for k, v := range list {
		tau := d.Cover(v)
		want := mat.Clamp(d.Lambda*d.Relevance(0, v)+(1-d.Lambda)*mat.Dot(d.DivWeight(0), ic.Gain(tau)), 0, 1)
		if math.Float64bits(phi[k]) != math.Float64bits(want) {
			t.Fatalf("position %d: φ %v, via Gain and Dot %v", k, phi[k], want)
		}
		ic.Add(tau)
	}
	exp, fromExp := d.ExpectedClicks(0, list), d.ExpectedClicksFrom(phi)
	for k := range exp {
		if math.Float64bits(exp[k]) != math.Float64bits(fromExp[k]) {
			t.Fatalf("expected clicks differ at %d: %v vs %v", k, exp[k], fromExp[k])
		}
	}
	for k := 0; k <= len(list)+1; k++ {
		if a, b := d.Satisfaction(0, list, k), d.SatisfactionFrom(phi, k); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("satis@%d: %v vs %v", k, a, b)
		}
	}
}

// BenchmarkDCMAttractions is one evaluated list's click-model pass: the
// attractions of a 20-item list over 5 topics.
func BenchmarkDCMAttractions(b *testing.B) {
	d, list := fiveTopicDCM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Attractions(0, list)
	}
}

// Satisfaction computes satis@k with the fitted φ̃ and ε̃.
func (e *Estimated) Satisfaction(user int, list []int, k int) float64 {
	phi := e.Attractions(user, list)
	if k > len(list) {
		k = len(list)
	}
	prod := 1.0
	for i := 0; i < k && i < len(phi); i++ {
		eps := 0.5
		if i < len(e.Eps) {
			eps = e.Eps[i]
		}
		prod *= 1 - eps*phi[i]
	}
	return 1 - prod
}

// LogLikelihood returns the DCM log-likelihood of the logs under the fitted
// parameters, useful for verifying that estimation improves the fit.
func (e *Estimated) LogLikelihood(logs []Session) float64 {
	var ll float64
	for _, s := range logs {
		phi := e.Attractions(s.User, s.List)
		last := lastClick(s.Clicks)
		for k := range s.List {
			if last >= 0 && k > last {
				break
			}
			p := mat.Clamp(phi[k], 1e-6, 1-1e-6)
			if k < len(s.Clicks) && s.Clicks[k] {
				ll += math.Log(p)
			} else {
				ll += math.Log(1 - p)
			}
		}
	}
	return ll
}

// Attractions mirrors DCM.Attractions using the fitted parameters.
func (e *Estimated) Attractions(user int, list []int) []float64 {
	phi := make([]float64, len(list))
	rho := e.Rho[user]
	ic := topics.NewIncrementalCoverage(e.Topics)
	for k, v := range list {
		tau := e.Cover(v)
		div := 0.0
		if rho != nil {
			div = ic.WeightedGain(rho, tau)
		}
		phi[k] = mat.Clamp(e.Lambda*e.Alpha[v]+(1-e.Lambda)*div, 0, 1)
		ic.Add(tau)
	}
	return phi
}
