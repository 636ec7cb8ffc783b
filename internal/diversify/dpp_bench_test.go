package diversify

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// BenchmarkGreedyMAP is DPP's selection on a 20-item list, the offline
// round's length: a full greedy MAP ranking over a PSD kernel.
func BenchmarkGreedyMAP(b *testing.B) {
	const n = 20
	rng := rand.New(rand.NewSource(3))
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, 8)
		for j := range vecs[i] {
			vecs[i][j] = rng.NormFloat64()
		}
	}
	kernel := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kernel.Set(i, j, mat.Dot(vecs[i], vecs[j]))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyMAP(kernel, n)
	}
}
