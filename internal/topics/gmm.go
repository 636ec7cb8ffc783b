package topics

import (
	"math"
	"math/rand"
)

// GMM is a Gaussian mixture model with diagonal covariance, fit by
// expectation-maximization. The Taobao experimental setup uses a GMM to
// cluster thousands of raw categories (represented as embedding vectors)
// into m topics; the per-component responsibilities then serve directly as
// the probabilistic topic coverage τ of Eq. (4)'s footnote.
type GMM struct {
	K       int         // number of components (topics)
	Dim     int         // feature dimension
	Weights []float64   // mixing weights, length K
	Means   [][]float64 // K × Dim
	Vars    [][]float64 // K × Dim diagonal variances
}

// FitGMM runs EM on the points (n × dim) for the given number of iterations
// and returns the fitted mixture. Means are initialized by sampling distinct
// points (k-means++-style seeding by distance), variances to the data
// variance. The fit is deterministic given rng.
func FitGMM(points [][]float64, k, iters int, rng *rand.Rand) *GMM {
	n := len(points)
	if n == 0 || k <= 0 {
		panic("topics: FitGMM needs points and k > 0")
	}
	dim := len(points[0])
	g := &GMM{K: k, Dim: dim}
	g.Weights = make([]float64, k)
	g.Means = make([][]float64, k)
	g.Vars = make([][]float64, k)

	// Global variance for initialization and as a variance floor.
	globalVar := make([]float64, dim)
	mean := make([]float64, dim)
	for _, p := range points {
		for d, v := range p {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(n)
	}
	for _, p := range points {
		for d, v := range p {
			diff := v - mean[d]
			globalVar[d] += diff * diff
		}
	}
	for d := range globalVar {
		globalVar[d] = globalVar[d]/float64(n) + 1e-6
	}

	// k-means++ style seeding.
	first := rng.Intn(n)
	g.Means[0] = append([]float64(nil), points[first]...)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(points[i], g.Means[0])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			for i, d := range minDist {
				r -= d
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		g.Means[c] = append([]float64(nil), points[pick]...)
		for i := range minDist {
			if d := sqDist(points[i], g.Means[c]); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	for c := 0; c < k; c++ {
		g.Weights[c] = 1 / float64(k)
		g.Vars[c] = append([]float64(nil), globalVar...)
	}

	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	for it := 0; it < iters; it++ {
		// E-step: responsibilities via log-sum-exp.
		for i, p := range points {
			logp := make([]float64, k)
			mx := math.Inf(-1)
			for c := 0; c < k; c++ {
				lp := math.Log(g.Weights[c]+1e-12) + g.logGauss(c, p)
				logp[c] = lp
				if lp > mx {
					mx = lp
				}
			}
			var sum float64
			for c := range logp {
				logp[c] = math.Exp(logp[c] - mx)
				sum += logp[c]
			}
			for c := range logp {
				resp[i][c] = logp[c] / sum
			}
		}
		// M-step.
		for c := 0; c < k; c++ {
			var nc float64
			mu := make([]float64, dim)
			for i, p := range points {
				r := resp[i][c]
				nc += r
				for d, v := range p {
					mu[d] += r * v
				}
			}
			if nc < 1e-9 {
				// Dead component: re-seed on a random point.
				g.Means[c] = append([]float64(nil), points[rng.Intn(n)]...)
				g.Vars[c] = append([]float64(nil), globalVar...)
				g.Weights[c] = 1e-6
				continue
			}
			for d := range mu {
				mu[d] /= nc
			}
			va := make([]float64, dim)
			for i, p := range points {
				r := resp[i][c]
				for d, v := range p {
					diff := v - mu[d]
					va[d] += r * diff * diff
				}
			}
			for d := range va {
				va[d] = va[d]/nc + 1e-6
			}
			g.Means[c] = mu
			g.Vars[c] = va
			g.Weights[c] = nc / float64(n)
		}
	}
	return g
}

// Responsibilities returns the posterior p(component | point) vector, which
// doubles as a probabilistic topic coverage (entries in [0,1], summing to 1).
func (g *GMM) Responsibilities(p []float64) []float64 {
	logp := make([]float64, g.K)
	mx := math.Inf(-1)
	for c := 0; c < g.K; c++ {
		lp := math.Log(g.Weights[c]+1e-12) + g.logGauss(c, p)
		logp[c] = lp
		if lp > mx {
			mx = lp
		}
	}
	var sum float64
	for c := range logp {
		logp[c] = math.Exp(logp[c] - mx)
		sum += logp[c]
	}
	for c := range logp {
		logp[c] /= sum
	}
	return logp
}

func (g *GMM) logGauss(c int, p []float64) float64 {
	var lp float64
	mu, va := g.Means[c], g.Vars[c]
	for d, v := range p {
		diff := v - mu[d]
		lp += -0.5*math.Log(2*math.Pi*va[d]) - diff*diff/(2*va[d])
	}
	return lp
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
