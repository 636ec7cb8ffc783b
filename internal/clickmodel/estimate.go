package clickmodel

import (
	"repro/internal/mat"
	"repro/internal/topics"
)

// Session is one logged impression: a displayed list and the observed
// clicks, for a given user.
type Session struct {
	User   int
	List   []int
	Clicks []bool
}

// Estimated holds DCM parameters fitted from click logs by maximum
// likelihood, mirroring the estimation step of Section IV-B1 (the paper
// fits ᾱ, ρ̄, ε̄ on the raw logs before using the DCM as the environment).
type Estimated struct {
	// Alpha is the per-item attraction estimate α̃.
	Alpha map[int]float64
	// Eps is the per-position termination estimate ε̃.
	Eps []float64
	// Rho is the per-user diversity weight estimate ρ̃ (nil if the fit was
	// run with lambda = 1).
	Rho map[int][]float64
	// Lambda is the tradeoff the model was fitted under.
	Lambda float64
	// Topics is m.
	Topics int
	// Cover resolves item coverage (shared with the generator).
	Cover func(item int) []float64
}

// Estimate fits DCM parameters on logs. The procedure follows Guo et al.
// (2009): positions up to (and including) the last click are treated as
// examined; α̃_v is the fraction of examinations of v that were clicked;
// ε̃(k) is the fraction of clicks at position k that ended the session.
// When lambda < 1 a per-user ρ̃ is fitted by projected gradient ascent on
// the Bernoulli likelihood of clicks given examination.
func Estimate(logs []Session, lambda float64, m int, cover func(item int) []float64, maxLen int) *Estimated {
	e := &Estimated{
		Alpha:  make(map[int]float64),
		Eps:    make([]float64, maxLen),
		Rho:    make(map[int][]float64),
		Lambda: lambda,
		Topics: m,
		Cover:  cover,
	}
	// Whether the user terminated at the last click is unobserved (she may
	// have continued and simply clicked nothing else), so (α, ε) are fitted
	// jointly by EM. Initialization: naive counting that treats positions
	// up to the last click as examined.
	for k := range e.Eps {
		e.Eps[k] = 0.5
	}
	clicksOf := make(map[int]float64)
	examsOf := make(map[int]float64)
	for _, s := range logs {
		last := lastClick(s.Clicks)
		for k, v := range s.List {
			if last >= 0 && k > last {
				break
			}
			examsOf[v]++
			if k < len(s.Clicks) && s.Clicks[k] {
				clicksOf[v]++
			}
		}
	}
	setAlpha := func() {
		for v, ex := range examsOf {
			// Laplace smoothing keeps unseen/rare items away from 0 and 1.
			e.Alpha[v] = (clicksOf[v] + 0.5) / (ex + 1)
		}
	}
	setAlpha()

	for iter := 0; iter < 6; iter++ {
		clear(clicksOf)
		clear(examsOf)
		termAt := make([]float64, maxLen)
		clicksAt := make([]float64, maxLen)
		for _, s := range logs {
			last := lastClick(s.Clicks)
			// E-step: posterior that the session ended at the last click,
			// given that no later position was clicked:
			// P(term) ∝ ε(last); P(cont) ∝ (1−ε(last))·Π_{k>last}(1−α).
			cont := 1.0
			pTerm := 0.0
			if last >= 0 {
				for k := last + 1; k < len(s.List); k++ {
					cont *= 1 - e.Alpha[s.List[k]]
				}
				eps := e.Eps[min(last, maxLen-1)]
				pTerm = eps / (eps + (1-eps)*cont + 1e-12)
			}
			// M-step accumulation with fractional examinations.
			for k, v := range s.List {
				w := 1.0
				if last >= 0 && k > last {
					w = 1 - pTerm
				}
				examsOf[v] += w
				if k < len(s.Clicks) && s.Clicks[k] {
					clicksOf[v]++
					if k < maxLen {
						clicksAt[k]++
						if k == last {
							termAt[k] += pTerm
						}
					}
				}
			}
		}
		setAlpha()
		for k := 0; k < maxLen; k++ {
			if clicksAt[k] > 0 {
				e.Eps[k] = mat.Clamp((termAt[k]+0.5)/(clicksAt[k]+1), 0.01, 0.99)
			}
		}
	}
	if lambda < 1 {
		e.fitRho(logs)
	}
	return e
}

// fitRho runs a few epochs of projected gradient ascent per user on
// log-likelihood Σ y·log φ + (1−y)·log(1−φ) with φ = λα̃ + (1−λ)ρᵀζ,
// keeping ρ on the simplex scaled to [0,1]^m with Σρ ≤ 1.
func (e *Estimated) fitRho(logs []Session) {
	byUser := make(map[int][]Session)
	for _, s := range logs {
		byUser[s.User] = append(byUser[s.User], s)
	}
	for u, sessions := range byUser {
		rho := make([]float64, e.Topics)
		for j := range rho {
			rho[j] = 0.5 / float64(e.Topics)
		}
		const lr = 0.1
		zeta := make([]float64, e.Topics)
		for epoch := 0; epoch < 30; epoch++ {
			grad := make([]float64, e.Topics)
			for _, s := range sessions {
				ic := topics.NewIncrementalCoverage(e.Topics)
				last := lastClick(s.Clicks)
				for k, v := range s.List {
					tau := e.Cover(v)
					ic.GainInto(zeta, tau)
					ic.Add(tau)
					if last >= 0 && k > last {
						break
					}
					phi := mat.Clamp(e.Lambda*e.Alpha[v]+(1-e.Lambda)*mat.Dot(rho, zeta), 1e-4, 1-1e-4)
					y := 0.0
					if k < len(s.Clicks) && s.Clicks[k] {
						y = 1
					}
					// d/dρ of the Bernoulli log-likelihood.
					coef := (y/phi - (1-y)/(1-phi)) * (1 - e.Lambda)
					for j, z := range zeta {
						grad[j] += coef * z
					}
				}
			}
			for j := range rho {
				rho[j] = mat.Clamp(rho[j]+lr*grad[j]/float64(len(sessions)+1), 0, 1)
			}
			// Project so Σρ ≤ 1 (keeps φ a probability).
			if s := mat.SumVec(rho); s > 1 {
				for j := range rho {
					rho[j] /= s
				}
			}
		}
		e.Rho[u] = rho
	}
}

func lastClick(clicks []bool) int {
	last := -1
	for k, c := range clicks {
		if c {
			last = k
		}
	}
	return last
}
