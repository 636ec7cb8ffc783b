package metrics

import (
	"math"
)

// TTestResult reports a two-sample comparison.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest runs Welch's unequal-variance t-test between samples a and b
// (two-sided). The paper's tables mark improvements significant at p<0.05.
func WelchTTest(a, b []float64) TTestResult {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return TTestResult{P: 1}
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := variance(a), variance(b)
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		if ma == mb {
			return TTestResult{P: 1}
		}
		return TTestResult{T: math.Inf(sign(ma - mb)), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / se
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	return TTestResult{T: t, DF: df, P: studentTwoSidedP(t, df)}
}

// PairedTTest runs a paired t-test on equal-length samples — the right test
// when both systems are evaluated on the same requests.
func PairedTTest(a, b []float64) TTestResult {
	if len(a) != len(b) || len(a) < 2 {
		return TTestResult{P: 1}
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	n := float64(len(diffs))
	m := Mean(diffs)
	v := variance(diffs)
	if v == 0 {
		if m == 0 {
			return TTestResult{P: 1}
		}
		return TTestResult{T: math.Inf(sign(m)), DF: n - 1, P: 0}
	}
	t := m / math.Sqrt(v/n)
	df := n - 1
	return TTestResult{T: t, DF: df, P: studentTwoSidedP(t, df)}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTwoSidedP returns P(|T| > |t|) for Student's t with df degrees of
// freedom, via the regularized incomplete beta function:
// p = I_{df/(df+t²)}(df/2, 1/2).
func studentTwoSidedP(t, df float64) float64 {
	if math.IsInf(t, 0) {
		return 0
	}
	x := df / (df + t*t)
	return regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes §6.4, Lentz's
// method).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta) / a
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x)
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	frontSym := math.Exp(math.Log(1-x)*b+math.Log(x)*a+lbeta) / b
	return 1 - frontSym*betaCF(b, a, 1-x)
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-12
		tiny    = 1e-30
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
