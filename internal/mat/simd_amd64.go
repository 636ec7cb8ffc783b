package mat

// simdConsts holds every constant the vector kernels read, each repeated
// across the four lanes of a YMM operand. The exp rows are the literals of
// math's amd64 archExp table and the tanh rows those of math.tanh, so the
// assembly computes with exactly the floats the scalar functions do. The
// assembly addresses the rows by offset (the #defines atop simd_amd64.s):
// keep the order.
var simdConsts = [...][4]float64{
	splat(1.4426950408889634073599246810018920),                  // log2(e)
	splat(0.69314718055966295651160180568695068359375),           // upper half of ln 2
	splat(0.28235290563031577122588448175013436025525412068e-12), // lower half of ln 2
	splat(0.0625),
	splat(2.4801587301587301587e-5), // exp's Taylor coefficients, highest first
	splat(1.9841269841269841270e-4),
	splat(1.3888888888888888889e-3),
	splat(8.3333333333333333333e-3),
	splat(4.1666666666666666667e-2),
	splat(1.6666666666666666667e-1),
	splat(0.5),
	splat(1.0),
	splat(2.0),
	splat(simdExpMax),
	splat(0.625),                              // tanh's rational/exp boundary
	splat(0.5 * 8.8029691931113054295988e+01), // tanh's saturation point, 0.5·MAXLOG
	splat(-9.64399179425052238628e-1),         // tanh's P
	splat(-9.92877231001918586564e1),
	splat(-1.61468768441708447952e3),
	splat(1.12811678491632931402e2), // tanh's Q
	splat(2.23548839060100448583e3),
	splat(4.84406305325125486048e3),
}

func splat(v float64) [4]float64 { return [4]float64{v, v, v, v} }

// addVecMatAVX2 is addVecMatGo's vector twin. The caller has checked
// vecMatInBounds.
//
//go:noescape
func addVecMatAVX2(dst, x, b []float64, stride int)

// addMatVecAVX2 is addMatVecGo's vector twin. The caller has checked that
// b holds len(dst) rows of len(x) > 0 floats.
//
//go:noescape
func addMatVecAVX2(dst, b, x []float64)

// addMatMulATBAVX2 is addMatMulATBGo's vector twin. The caller has checked
// that a and b hold rows rows of ac and bc ≥ 0 floats.
//
//go:noescape
func addMatMulATBAVX2(out, a, b []float64, rows, ac, bc int)

// adamAVX2 is adamGo's vector twin. The caller passes slices of one length,
// a multiple of four.
//
//go:noescape
func adamAVX2(w, g, m, v []float64, k *adamCoeffs)

// sigmoidAVX2 and tanhAVX2 write f(src[i]) to dst[i] four at a time and
// return how many they wrote: they stop before a block holding a value the
// replicas do not cover, and before a tail of fewer than four.
//
//go:noescape
func sigmoidAVX2(dst, src []float64) int

//go:noescape
func tanhAVX2(dst, src []float64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// simdSupported reports AVX2 and FMA with the OS saving YMM state: the
// features the kernels use, and a superset of the condition (AVX and FMA)
// under which math.Exp takes the FMA path the exp replica copies.
func simdSupported() bool {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2              = 1 << 5                    // CPUID.7.0:EBX
		ymmState          = 1<<1 | 1<<2               // XCR0: SSE and AVX state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
