package bandit

import (
	"math"
)

// RegretPoint is one checkpoint of a regret curve.
type RegretPoint struct {
	Round     int
	CumRegret float64
	// SqrtRef is c·√n fitted from the final point, plotted alongside to
	// make the Õ(√n) shape visible.
	SqrtRef float64
}

// RegretCurve is the output of one simulation.
type RegretCurve struct {
	Mode   Mode
	Points []RegretPoint
	// Final is the cumulative regret after all rounds.
	Final float64
	// Alpha is the fitted exponent of CumRegret ≈ c·n^α over the second
	// half of the curve; Theorem 5.1 predicts α ≈ 0.5 for UCB.
	Alpha float64
}

// explorationScale returns the theorem's s for horizon n and feature
// dimension q0 with σ = 1 and ‖ω*‖ ≤ 1 (a constant-factor-faithful form).
func explorationScale(n, k, q0 int) float64 {
	fn, fq := float64(n), float64(q0)
	return math.Sqrt(fq*math.Log(1+fn*float64(k)/fq)+2*math.Log(fn)) + 1
}

// SimulateRegret runs the learner against the environment for n rounds and
// returns the cumulative per-round utility regret
// Σ f(S*_u) − f(S_u), checkpointed every `every` rounds.
func SimulateRegret(e *Env, mode Mode, n, every int, sScale float64) RegretCurve {
	d := e.Q + e.M
	s := sScale * explorationScale(n, e.K, d)
	learner := newLinRAPID(d, s, mode)
	curve := RegretCurve{Mode: mode}
	var cum float64
	type pt struct {
		n int
		r float64
	}
	var checkpoints []pt
	for round := 1; round <= n; round++ {
		r := e.nextRound()
		feats := learner.selectSlate(e, r)
		slate := learner.lastSlate
		clicks := e.simulateClicks(r.User, slate)
		learner.update(feats, clicks)
		opt := e.oracleSlate(r)
		cum += e.utility(r.User, opt) - e.utility(r.User, slate)
		if round%every == 0 || round == n {
			checkpoints = append(checkpoints, pt{round, cum})
		}
	}
	curve.Final = cum
	c := cum / math.Sqrt(float64(n))
	for _, p := range checkpoints {
		curve.Points = append(curve.Points, RegretPoint{
			Round:     p.n,
			CumRegret: p.r,
			SqrtRef:   c * math.Sqrt(float64(p.n)),
		})
	}
	curve.Alpha = fitExponent(curve.Points)
	return curve
}

// fitExponent regresses log regret on log n over the second half of the
// curve, returning the growth exponent α.
func fitExponent(points []RegretPoint) float64 {
	start := len(points) / 2
	var sx, sy, sxx, sxy float64
	n := 0
	for _, p := range points[start:] {
		if p.CumRegret <= 0 || p.Round <= 0 {
			continue
		}
		x := math.Log(float64(p.Round))
		y := math.Log(p.CumRegret)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return 0
	}
	fn := float64(n)
	denom := fn*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	return (fn*sxy - sx*sy) / denom
}
