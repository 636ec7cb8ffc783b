package bandit

import (
	"math"
	"testing"

	"repro/internal/topics"
)

func testEnv(seed int64) *Env {
	return NewEnv(4, 3, 3, 10, 40, 12, seed)
}

func TestEnvInvariants(t *testing.T) {
	e := testEnv(1)
	if n := len(e.OmegaStar); n != e.Q+e.M {
		t.Fatalf("omega* dimension %d", n)
	}
	var norm float64
	for _, w := range e.OmegaStar {
		if w < 0 {
			t.Fatal("omega* should be non-negative in this environment")
		}
		norm += w * w
	}
	if math.Sqrt(norm) > 1 {
		t.Fatalf("‖ω*‖ = %v > 1 violates the theorem's assumption", math.Sqrt(norm))
	}
	for k := 1; k < e.K; k++ {
		if e.Termination[k] > e.Termination[k-1] {
			t.Fatal("termination not non-increasing")
		}
	}
}

func TestFeatureAndAttractionBounds(t *testing.T) {
	e := testEnv(2)
	for trial := 0; trial < 50; trial++ {
		r := e.nextRound()
		ic := topics.NewIncrementalCoverage(e.M)
		for _, v := range r.Pool[:3] {
			eta := e.feature(r.User, v, ic)
			if len(eta) != e.Q+e.M {
				t.Fatalf("feature length %d", len(eta))
			}
			phi := e.attraction(eta)
			if phi < 0 || phi > 1 {
				t.Fatalf("attraction %v", phi)
			}
			ic.Add(e.itemCover[v])
		}
	}
}

func TestUtilityBounds(t *testing.T) {
	e := testEnv(3)
	for trial := 0; trial < 20; trial++ {
		r := e.nextRound()
		slate := e.oracleSlate(r)
		u := e.utility(r.User, slate)
		if u < 0 || u > 1 {
			t.Fatalf("utility %v", u)
		}
	}
}

func TestOracleBeatsRandomSlate(t *testing.T) {
	e := testEnv(4)
	var oracleU, randomU float64
	for trial := 0; trial < 200; trial++ {
		r := e.nextRound()
		oracleU += e.utility(r.User, e.oracleSlate(r))
		randomU += e.utility(r.User, r.Pool[:e.K])
	}
	if oracleU <= randomU {
		t.Fatalf("oracle %v not above random %v", oracleU, randomU)
	}
}

func TestShermanMorrisonMatchesDirectInverse(t *testing.T) {
	l := newLinRAPID(3, 1, UCB)
	etas := [][]float64{{1, 0, 0.5}, {0.2, 0.7, 0.1}, {0.3, 0.3, 0.3}}
	for _, eta := range etas {
		l.rankOne(eta)
	}
	// M = I + Σ ηηᵀ computed directly, then check M·M⁻¹ ≈ I.
	m := [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for _, eta := range etas {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += eta[i] * eta[j]
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += m[i][k] * l.minv.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-9 {
				t.Fatalf("M·M⁻¹[%d][%d] = %v", i, j, s)
			}
		}
	}
}

func TestQuadFormNonNegative(t *testing.T) {
	l := newLinRAPID(4, 1, UCB)
	l.rankOne([]float64{0.5, 0.1, 0.2, 0.9})
	for _, eta := range [][]float64{{1, 0, 0, 0}, {0.3, 0.3, 0.3, 0.3}} {
		if q := l.quad(eta); q < 0 {
			t.Fatalf("quadratic form %v < 0", q)
		}
	}
}

func TestLearnerConvergesToOracle(t *testing.T) {
	e := testEnv(5)
	d := e.Q + e.M
	l := newLinRAPID(d, 0.5, UCB)
	var early, late float64
	const n = 1200
	for round := 1; round <= n; round++ {
		r := e.nextRound()
		feats := l.selectSlate(e, r)
		slate := l.lastSlate
		clicks := e.simulateClicks(r.User, slate)
		l.update(feats, clicks)
		gap := e.utility(r.User, e.oracleSlate(r)) - e.utility(r.User, slate)
		if round <= n/4 {
			early += gap
		} else if round > 3*n/4 {
			late += gap
		}
	}
	if late >= early {
		t.Fatalf("per-round regret did not shrink: early %v late %v", early, late)
	}
}

func TestRegretSublinearExponent(t *testing.T) {
	if testing.Short() {
		t.Skip("regret simulation is slow")
	}
	e := NewEnv(6, 4, 4, 30, 120, 20, 7)
	curve := SimulateRegret(e, UCB, 3000, 150, 0.1)
	if curve.Alpha > 0.85 {
		t.Fatalf("UCB regret exponent %v looks linear", curve.Alpha)
	}
	if curve.Final <= 0 {
		t.Fatal("regret should be positive while learning")
	}
	// Checkpoints must be non-decreasing... cumulative regret can locally
	// dip only if a chosen slate beats the greedy oracle; allow slack.
	prev := math.Inf(-1)
	for _, p := range curve.Points {
		if p.CumRegret < prev-1.0 {
			t.Fatalf("cumulative regret dropped sharply at %d", p.Round)
		}
		if p.CumRegret > prev {
			prev = p.CumRegret
		}
	}
}

func TestUCBOutperformsAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("regret simulation is slow")
	}
	const n = 2500
	ucb := SimulateRegret(NewEnv(6, 4, 4, 30, 120, 20, 9), UCB, n, n/10, 0.1)
	noPers := SimulateRegret(NewEnv(6, 4, 4, 30, 120, 20, 9), NoPersonal, n, n/10, 0.1)
	if ucb.Final >= noPers.Final {
		t.Fatalf("UCB regret %v not below non-personalized %v", ucb.Final, noPers.Final)
	}
}

func TestExplorationScalePositive(t *testing.T) {
	if s := explorationScale(1000, 5, 10); s <= 1 {
		t.Fatalf("exploration scale %v", s)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{UCB: "RAPID-UCB", Greedy: "greedy", NoPersonal: "non-personalized"} {
		if m.String() != want {
			t.Fatalf("Mode %d → %q", m, m.String())
		}
	}
}

func TestGammaBounds(t *testing.T) {
	e := testEnv(11)
	phiMax := e.MaxAttraction(50)
	if phiMax <= 0 || phiMax > 1 {
		t.Fatalf("phiMax %v", phiMax)
	}
	g := e.Gamma(phiMax)
	if g <= 0 || g >= 1 {
		t.Fatalf("gamma %v outside (0,1)", g)
	}
	// γ is non-increasing in φ̄max.
	if e.Gamma(0.9) > e.Gamma(0.1) {
		t.Fatal("gamma should shrink as phiMax grows")
	}
	// Floor at (1−1/e)/K.
	if e.Gamma(1) < (1-1/math.E)/float64(e.K)-1e-12 {
		t.Fatalf("gamma %v below its floor", e.Gamma(1))
	}
}

func TestCholeskyFactorization(t *testing.T) {
	l := newLinRAPID(3, 1, Thompson)
	l.rankOne([]float64{0.4, 0.2, 0.7})
	l.rankOne([]float64{0.1, 0.9, 0.3})
	ch := cholesky(l.minv)
	// Verify L·Lᵀ = M⁻¹.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += ch.At(i, k) * ch.At(j, k)
			}
			if math.Abs(s-l.minv.At(i, j)) > 1e-9 {
				t.Fatalf("L·Lᵀ[%d][%d] = %v, want %v", i, j, s, l.minv.At(i, j))
			}
		}
	}
}

func TestThompsonLearns(t *testing.T) {
	e := testEnv(13)
	d := e.Q + e.M
	l := newLinRAPID(d, 1.0, Thompson)
	var early, late float64
	const n = 1200
	for round := 1; round <= n; round++ {
		r := e.nextRound()
		feats := l.selectSlate(e, r)
		slate := l.lastSlate
		clicks := e.simulateClicks(r.User, slate)
		l.update(feats, clicks)
		gap := e.utility(r.User, e.oracleSlate(r)) - e.utility(r.User, slate)
		if round <= n/4 {
			early += gap
		} else if round > 3*n/4 {
			late += gap
		}
	}
	if late >= early {
		t.Fatalf("Thompson per-round regret did not shrink: early %v late %v", early, late)
	}
}

// Gamma returns the theorem's greedy approximation ratio
// γ = (1 − 1/e)·max{1/K, 1 − 2·φ̄max/(K−1)} for the given maximum
// attraction probability. The simulation reports plain regret against the
// greedy oracle (the standard empirical comparator); dividing f(S) by this
// γ recovers the exact quantity bounded by Theorem 5.1.
func (e *Env) Gamma(phiMax float64) float64 {
	a := 1.0 / float64(e.K)
	b := 1 - 2*phiMax/float64(e.K-1)
	if b > a {
		a = b
	}
	return (1 - 1/math.E) * a
}

// MaxAttraction estimates φ̄max by sampling rounds and scoring first-slot
// attractions — the quantity entering the γ of Theorem 5.1.
func (e *Env) MaxAttraction(samples int) float64 {
	var mx float64
	for s := 0; s < samples; s++ {
		r := e.nextRound()
		ic := topics.NewIncrementalCoverage(e.M)
		for _, v := range r.Pool {
			if phi := e.attraction(e.feature(r.User, v, ic)); phi > mx {
				mx = phi
			}
		}
	}
	return mx
}
