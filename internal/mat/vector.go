package mat

import (
	"math"
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

// ReLUInto applies max(0, x) element-wise.
func ReLUInto(dst, src []float64) {
	for i, x := range src {
		if x > 0 {
			dst[i] = x
		} else {
			dst[i] = 0
		}
	}
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
