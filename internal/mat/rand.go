package mat

import (
	"math"
	"math/rand"
)

// XavierUniform returns a rows×cols matrix with entries drawn uniformly
// from [-a, a] where a = sqrt(6/(fanIn+fanOut)). This is the Glorot
// initialization used for the tanh/sigmoid layers in this library.
func XavierUniform(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	a := math.Sqrt(6 / float64(rows+cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * a
	}
	return m
}

// HeNormal returns a rows×cols matrix with entries ~ N(0, 2/fanIn), the
// standard initialization for ReLU layers.
func HeNormal(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	std := math.Sqrt(2 / float64(rows))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// RandNormal returns a rows×cols matrix with entries ~ N(mean, std²).
func RandNormal(rows, cols int, mean, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = mean + rng.NormFloat64()*std
	}
	return m
}
