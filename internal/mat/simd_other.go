//go:build !amd64

package mat

// The vector kernels exist only on amd64. Elsewhere simdSupported is false,
// so arithSIMD and actSIMD stay false and nothing calls these.

func simdSupported() bool { return false }

func addVecMatAVX2(dst, x, b []float64, stride int) { panic("mat: no vector kernels on this GOARCH") }

func addMatVecAVX2(dst, b, x []float64) { panic("mat: no vector kernels on this GOARCH") }

func addMatMulATBAVX2(out, a, b []float64, rows, ac, bc int) {
	panic("mat: no vector kernels on this GOARCH")
}

func adamAVX2(w, g, m, v []float64, k *adamCoeffs) { panic("mat: no vector kernels on this GOARCH") }

func sigmoidAVX2(dst, src []float64) int { panic("mat: no vector kernels on this GOARCH") }

func tanhAVX2(dst, src []float64) int { panic("mat: no vector kernels on this GOARCH") }
