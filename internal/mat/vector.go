package mat

import (
	"math"
	"math/bits"
)

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// ScaleVec returns s·a.
func ScaleVec(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = s * v
	}
	return out
}

// NormVec returns the Euclidean norm of a.
func NormVec(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

// SumVec returns the sum of the entries of a.
func SumVec(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// SoftmaxInto writes the softmax of src into dst (same length; dst may be
// src), subtracting the maximum first for numerical stability.
func SoftmaxInto(dst, src []float64) {
	mx := math.Inf(-1)
	for _, v := range src {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(v - mx)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Normalize returns a scaled so its entries sum to 1. If the sum is zero it
// returns the uniform distribution.
func Normalize(a []float64) []float64 {
	s := SumVec(a)
	out := make([]float64, len(a))
	if s == 0 {
		if len(a) > 0 {
			u := 1 / float64(len(a))
			for i := range out {
				out[i] = u
			}
		}
		return out
	}
	for i, v := range a {
		out[i] = v / s
	}
	return out
}

// Entropy returns the Shannon entropy (nats) of a probability vector.
// Zero entries contribute zero.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// Sigmoid returns 1/(1+e^{-x}) computed without overflow for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Softplus returns log(1+e^x) computed stably; its derivative is Sigmoid.
func Softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// The *Into functions below apply one activation element-wise, writing
// f(src[i]) to dst[i]; dst may be src. They are the single copy of each
// loop: the autodiff tape's forward ops and the tape-free inference forward
// both call them. SigmoidInto and TanhInto run four lanes at a time where
// the CPU allows (simd.go), bit for bit equal to the scalar loops below.

// SigmoidInto applies Sigmoid element-wise.
func SigmoidInto(dst, src []float64) {
	if actSIMD && len(dst) >= len(src) {
		sigmoidSIMD(dst, src)
		return
	}
	sigmoidGo(dst, src)
}

// TanhInto applies math.Tanh element-wise.
func TanhInto(dst, src []float64) {
	if actSIMD && len(dst) >= len(src) {
		tanhSIMD(dst, src)
		return
	}
	tanhGo(dst, src)
}

// sigmoidGo and tanhGo are the portable loops and the vector kernels'
// oracles.
func sigmoidGo(dst, src []float64) {
	for i, x := range src {
		dst[i] = Sigmoid(x)
	}
}

func tanhGo(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}

// ReLUInto applies max(0, x) element-wise: dst[i] is x where x > 0 and +0
// elsewhere, NaN included. It selects by mask instead of branching, since
// the sign of an activation is data the branch predictor cannot learn.
func ReLUInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = math.Float64frombits(math.Float64bits(x) & positiveMask(x))
	}
}

// ReLUGradInto is ReLU's backward step: ga[i] += g[i] where x[i] > 0, and
// ga[i] is left as it is elsewhere. It selects between ga[i]+g[i] and
// ga[i] by mask rather than adding a masked g[i], so a −0 in ga survives
// where x ≤ 0, as it does under the branch. ga and g are at least as long
// as x.
func ReLUGradInto(ga, g, x []float64) {
	for i, xi := range x {
		keep := positiveMask(xi)
		sum, old := math.Float64bits(ga[i]+g[i]), math.Float64bits(ga[i])
		ga[i] = math.Float64frombits(sum&keep | old&^keep)
	}
}

// positiveMask is all ones where x > 0 and zero elsewhere. Below +Inf's
// bit pattern, the patterns less one are exactly those of the positive
// numbers from the smallest subnormal to +Inf: +0 wraps to the top, and
// −0, the negatives and every NaN lie at or above +Inf's.
func positiveMask(x float64) uint64 {
	_, borrow := bits.Sub64(math.Float64bits(x)-1, 0x7ff0000000000000, 0)
	return -borrow
}

// SoftplusInto applies Softplus element-wise.
func SoftplusInto(dst, src []float64) {
	for i, x := range src {
		dst[i] = Softplus(x)
	}
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
