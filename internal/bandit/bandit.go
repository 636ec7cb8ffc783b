// Package bandit implements the theoretical side of the paper (Section V):
// the linearized RAPID whose re-ranking score is φ_R = ω̂ᵀη with
// η = [relevance features, personalized marginal-diversity features], run
// as a LinUCB-style algorithm against a DCM environment. The simulation
// verifies Theorem 5.1 empirically: the γ-scaled cumulative regret of the
// UCB variant grows as Õ(√n), while ablations (no exploration, no
// personalization) do visibly worse.
package bandit

import (
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/topics"
)

// Env is the linear-DCM environment of the efficacy analysis: at each round
// a user arrives with a candidate pool; the attraction probability of item
// v placed after the set S is the linear form ω*ᵀη(u, v, S); clicks follow
// the DCM with known-order termination probabilities.
type Env struct {
	// Q is the relevance feature dimension; M the number of topics.
	Q, M int
	// K is the slate size; Termination has length K (non-increasing).
	K           int
	Termination []float64
	// OmegaStar = [β*, w*] with ‖ω*‖₂ ≤ 1 (Theorem 5.1's assumption).
	OmegaStar []float64

	// Universe.
	NumUsers, NumItems, PoolSize int
	userPref                     [][]float64 // per-user topic preference
	userFeat, itemFeat           [][]float64 // unit feature vectors
	itemCover                    [][]float64

	rng *rand.Rand
}

// NewEnv builds a deterministic environment.
func NewEnv(q, m, k, users, items, pool int, seed int64) *Env {
	rng := rand.New(rand.NewSource(seed))
	e := &Env{
		Q: q, M: m, K: k,
		Termination: decreasing(k, 0.7, 0.85),
		NumUsers:    users, NumItems: items, PoolSize: pool,
		rng: rng,
	}
	// ω* with positive diversity weights and ‖ω*‖ ≤ 1.
	omega := make([]float64, q+m)
	for i := range omega {
		omega[i] = math.Abs(rng.NormFloat64())
	}
	nrm := mat.NormVec(omega)
	for i := range omega {
		omega[i] /= nrm * 1.05
	}
	e.OmegaStar = omega
	for u := 0; u < users; u++ {
		pref := make([]float64, m)
		if u%2 == 0 {
			pref[rng.Intn(m)] = 1 // focused user
		} else {
			for j := range pref {
				pref[j] = rng.Float64()
			}
			pref = mat.Normalize(pref)
		}
		e.userPref = append(e.userPref, pref)
		e.userFeat = append(e.userFeat, unitVec(q, rng))
	}
	for v := 0; v < items; v++ {
		e.itemFeat = append(e.itemFeat, unitVec(q, rng))
		cov := make([]float64, m)
		cov[rng.Intn(m)] = 1
		e.itemCover = append(e.itemCover, cov)
	}
	return e
}

// round is one bandit interaction: a user and their candidate pool.
type round struct {
	User int
	Pool []int
}

// nextRound samples a round.
func (e *Env) nextRound() round {
	u := e.rng.Intn(e.NumUsers)
	pool := make([]int, e.PoolSize)
	for i := range pool {
		pool[i] = e.rng.Intn(e.NumItems)
	}
	return round{User: u, Pool: pool}
}

// feature builds η(u, v | S-coverage tracker): relevance features followed
// by the personalized marginal-diversity features pref_u ⊙ ζ(v).
func (e *Env) feature(u, v int, ic *topics.IncrementalCoverage) []float64 {
	eta := make([]float64, e.Q+e.M)
	xu, xv := e.userFeat[u], e.itemFeat[v]
	for i := 0; i < e.Q; i++ {
		// Element-wise interaction keeps ‖η‖ bounded by 1.
		eta[i] = xu[i] * xv[i]
	}
	gain := ic.Gain(e.itemCover[v])
	pref := e.userPref[u]
	for j := 0; j < e.M; j++ {
		eta[e.Q+j] = pref[j] * gain[j]
	}
	return eta
}

// attraction is φ̄ = ω*ᵀη clamped to [0,1].
func (e *Env) attraction(eta []float64) float64 {
	return mat.Clamp(mat.Dot(e.OmegaStar, eta), 0, 1)
}

// simulateClicks plays one DCM scan over a chosen slate, returning clicks
// and the per-slot features the learner observed.
func (e *Env) simulateClicks(u int, slate []int) (clicks []bool) {
	ic := topics.NewIncrementalCoverage(e.M)
	clicks = make([]bool, len(slate))
	for k, v := range slate {
		phi := e.attraction(e.feature(u, v, ic))
		ic.Add(e.itemCover[v])
		if e.rng.Float64() < phi {
			clicks[k] = true
			if e.rng.Float64() < e.Termination[k] {
				return clicks
			}
		}
	}
	return clicks
}

// utility is the DCM satisfaction f(S, ε̄, φ̄) = 1 − Π (1 − ε̄(k)·φ̄(v_k))
// computed with the true parameters.
func (e *Env) utility(u int, slate []int) float64 {
	ic := topics.NewIncrementalCoverage(e.M)
	prod := 1.0
	for k, v := range slate {
		phi := e.attraction(e.feature(u, v, ic))
		ic.Add(e.itemCover[v])
		prod *= 1 - e.Termination[k]*phi
	}
	return 1 - prod
}

// oracleSlate greedily assembles the γ-approximate optimal slate using the
// true ω* (the comparator S*_u of Eq. 12).
func (e *Env) oracleSlate(r round) []int {
	return greedySlate(r, e.K, func(u, v int, ic *topics.IncrementalCoverage) float64 {
		return e.attraction(e.feature(u, v, ic))
	}, e)
}

func greedySlate(r round, k int, score func(u, v int, ic *topics.IncrementalCoverage) float64, e *Env) []int {
	ic := topics.NewIncrementalCoverage(e.M)
	used := make(map[int]bool, k)
	slate := make([]int, 0, k)
	for len(slate) < k && len(slate) < len(r.Pool) {
		best, bestS := -1, math.Inf(-1)
		for _, v := range r.Pool {
			if used[v] {
				continue
			}
			if s := score(r.User, v, ic); s > bestS {
				best, bestS = v, s
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		slate = append(slate, best)
		ic.Add(e.itemCover[best])
	}
	return slate
}

func unitVec(q int, rng *rand.Rand) []float64 {
	v := make([]float64, q)
	for i := range v {
		v[i] = math.Abs(rng.NormFloat64())
	}
	n := mat.NormVec(v)
	for i := range v {
		v[i] /= n
	}
	return v
}

func decreasing(k int, base, decay float64) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = base * math.Pow(decay, float64(i))
	}
	return out
}
