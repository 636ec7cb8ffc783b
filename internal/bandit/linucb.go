package bandit

import (
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/topics"
)

// Mode selects the algorithm variant for the regret study.
type Mode int

// Algorithm variants.
const (
	// UCB is linear RAPID with optimism: score = ω̂ᵀη + s·‖η‖_{M⁻¹}.
	UCB Mode = iota
	// Greedy drops exploration (s = 0): the regret baseline showing the
	// confidence term is load-bearing.
	Greedy
	// NoPersonal replaces the user's preference features with the uniform
	// distribution — the "diversify equally for everyone" ablation.
	NoPersonal
	// Thompson replaces the optimism bonus with posterior sampling:
	// ω̃ ~ N(ω̂, s²·M⁻¹), scored by ω̃ᵀη. An alternative exploration
	// strategy with the same Õ(√n) behaviour in linear bandits.
	Thompson
)

func (m Mode) String() string {
	switch m {
	case UCB:
		return "RAPID-UCB"
	case Greedy:
		return "greedy"
	case NoPersonal:
		return "non-personalized"
	case Thompson:
		return "RAPID-TS"
	default:
		return "unknown"
	}
}

// linRAPID is the linearized RAPID learner: ridge regression over the
// per-position features with a confidence ellipsoid, exactly the object
// analyzed in Theorem 5.1. M⁻¹ is maintained by Sherman–Morrison updates so
// each round costs O(K·pool·d²).
type linRAPID struct {
	Mode Mode
	// S is the exploration scale s of the theorem.
	S float64
	// Rng drives Thompson posterior sampling (lazily seeded when nil).
	Rng *rand.Rand

	d         int
	minv      *mat.Matrix // M⁻¹, d×d
	bvec      []float64   // Σ η·y
	wHat      []float64   // M⁻¹·b, refreshed lazily
	wHatInit  bool
	dirt      bool
	lastSlate []int
	wSample   []float64 // per-round Thompson sample ω̃
}

// newLinRAPID creates a learner for feature dimension d.
func newLinRAPID(d int, s float64, mode Mode) *linRAPID {
	minv := mat.New(d, d)
	for i := 0; i < d; i++ {
		minv.Set(i, i, 1)
	}
	return &linRAPID{Mode: mode, S: s, d: d, minv: minv, bvec: make([]float64, d), wHat: make([]float64, d)}
}

// selectSlate greedily builds the slate by UCB score, mirroring the
// paper's top-K-by-upper-confidence-bound re-ranking.
func (l *linRAPID) selectSlate(e *Env, r round) [][]float64 {
	// Returns the features of the chosen slate in order; the slate item
	// IDs are tracked in lastSlate.
	l.refresh()
	if l.Mode == Thompson {
		l.samplePosterior()
	}
	ic := topics.NewIncrementalCoverage(e.M)
	used := make(map[int]bool, e.K)
	l.lastSlate = l.lastSlate[:0]
	feats := make([][]float64, 0, e.K)
	for len(feats) < e.K && len(feats) < len(r.Pool) {
		best, bestS := -1, math.Inf(-1)
		var bestEta []float64
		for _, v := range r.Pool {
			if used[v] {
				continue
			}
			eta := l.feature(e, r.User, v, ic)
			var score float64
			switch l.Mode {
			case Thompson:
				score = mat.Dot(l.wSample, eta)
			case UCB:
				score = mat.Dot(l.wHat, eta) + l.S*math.Sqrt(quadForm(l.minv.Data, eta))
			default:
				score = mat.Dot(l.wHat, eta)
			}
			if score > bestS {
				best, bestS, bestEta = v, score, eta
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		l.lastSlate = append(l.lastSlate, best)
		feats = append(feats, bestEta)
		ic.Add(e.itemCover[best])
	}
	return feats
}

// update feeds back the DCM clicks. Under the DCM, positions up to the last
// click are known to be examined; later positions after a terminating click
// carry no attraction signal and are skipped, matching the estimation
// protocol of the analysis.
func (l *linRAPID) update(feats [][]float64, clicks []bool) {
	last := -1
	for k, c := range clicks {
		if c {
			last = k
		}
	}
	for k, eta := range feats {
		if last >= 0 && k > last {
			break
		}
		y := 0.0
		if k < len(clicks) && clicks[k] {
			y = 1
		}
		shermanMorrison(l.minv.Data, eta)
		for i, x := range eta {
			l.bvec[i] += x * y
		}
	}
	l.dirt = true
}

func (l *linRAPID) feature(e *Env, u, v int, ic *topics.IncrementalCoverage) []float64 {
	eta := e.feature(u, v, ic)
	if l.Mode == NoPersonal {
		// Replace pref_u ⊙ ζ with uniform(1/m) ⊙ ζ.
		gain := ic.Gain(e.itemCover[v])
		for j := 0; j < e.M; j++ {
			eta[e.Q+j] = gain[j] / float64(e.M)
		}
	}
	return eta
}

// shermanMorrison applies A⁻¹ ← A⁻¹ − (A⁻¹xxᵀA⁻¹)/(1+xᵀA⁻¹x) in place on a
// row-major d×d inverse, d = len(x): the rank-one update of both linear
// bandits, linRAPID's M⁻¹ and each Policy arm's A⁻¹.
func shermanMorrison(ainv, x []float64) {
	d := len(x)
	u := make([]float64, d) // A⁻¹·x
	for i := range u {
		u[i] = mat.Dot(ainv[i*d:(i+1)*d], x)
	}
	denom := 1 + mat.Dot(x, u)
	for i := 0; i < d; i++ {
		row := ainv[i*d : (i+1)*d]
		for j := range row {
			row[j] -= u[i] * u[j] / denom
		}
	}
}

// quadForm returns the confidence width's square xᵀA⁻¹x for a row-major d×d
// inverse, d = len(x), clamped at 0 against round-off.
func quadForm(ainv, x []float64) float64 {
	d := len(x)
	var q float64
	for i, xi := range x {
		q += xi * mat.Dot(ainv[i*d:(i+1)*d], x)
	}
	if q < 0 {
		return 0
	}
	return q
}

func (l *linRAPID) refresh() {
	if !l.dirt && l.wHatInit {
		return
	}
	for i := 0; i < l.d; i++ {
		row := l.minv.Row(i)
		var s float64
		for j, b := range l.bvec {
			s += row[j] * b
		}
		l.wHat[i] = s
	}
	l.dirt = false
	l.wHatInit = true
}

// samplePosterior draws ω̃ ~ N(ω̂, (S/3)²·M⁻¹) via the Cholesky factor of
// M⁻¹. The S/3 deflation mirrors common practice: the theorem's s is a
// high-probability envelope, far wider than a posterior standard deviation.
func (l *linRAPID) samplePosterior() {
	if l.Rng == nil {
		l.Rng = rand.New(rand.NewSource(20260705))
	}
	chol := cholesky(l.minv)
	z := make([]float64, l.d)
	for i := range z {
		z[i] = l.Rng.NormFloat64()
	}
	if l.wSample == nil {
		l.wSample = make([]float64, l.d)
	}
	scale := l.S / 3
	for i := 0; i < l.d; i++ {
		s := l.wHat[i]
		row := chol.Row(i)
		for j := 0; j <= i; j++ {
			s += scale * row[j] * z[j]
		}
		l.wSample[i] = s
	}
}

// cholesky returns the lower-triangular factor L with L·Lᵀ = a. The input
// must be symmetric positive definite (M⁻¹ always is); tiny negative
// pivots from round-off are clamped.
func cholesky(a *mat.Matrix) *mat.Matrix {
	n := a.Rows
	l := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s < 1e-12 {
					s = 1e-12
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l
}
