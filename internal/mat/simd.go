// The vector layer under the hot loops, in two families.
//
// Arithmetic: addVecMat (every GEMM and the inference forward's
// vector–matrix products), the training backward's two halves of a MatMul
// gradient — addMatVec (the rows of AddMatMulABT, and backLSTM's ∂h and ∂x)
// and the AddMatMulATB panel — and AdamUpdate, every trainer's optimizer
// step. Activations: SigmoidInto and TanhInto.
//
// The contract is bitwise: a vector kernel performs the scalar loop's
// operations in the scalar loop's order, four lanes at a time, so no output
// bit depends on which path ran. It holds because
//   - the scalar multiply-adds are unfused (the Go compiler lowers only an
//     explicit math.FMA to an FMA instruction on amd64), and the vector
//     kernels issue a separate multiply then add;
//   - VDIVPD and VSQRTPD round correctly, as the scalar DIVSD and SQRTSD
//     (math.Sqrt) do;
//   - math.Exp on amd64 takes an FMA path when the CPU has AVX and FMA, and
//     the vector exp replicates that path instruction for instruction;
//   - both paths round under the same MXCSR mode (round to nearest, which the
//     Go runtime never changes).
//
// Inputs the exp replica does not cover — a non-finite value, or |x| ≥ 708
// where exp leaves its normal range — send their block of four to the
// scalar function. At package init every vector kernel is run against its
// scalar twin on simdProbes, one family at a time: arithSIMD turns on the
// arithmetic kernels and actSIMD the activations, each only if the CPU has
// AVX2 and FMA and every bit of that family matches. The families fail
// apart: when math.Exp leaves its FMA path (GODEBUG=cpu.fma=off), only the
// activations go scalar, since no arithmetic kernel calls exp. There is no switch: a
// failed family silently takes the scalar path.
package mat

import "math"

// arithSIMD selects the vector arithmetic kernels and actSIMD the vector
// activations. init writes each once.
var arithSIMD, actSIMD bool

func init() {
	ok := simdSupported()
	arithSIMD = ok && arithSelfCheck(scalarTwins)
	actSIMD = ok && actSelfCheck(scalarTwins)
}

// scalarKernels names one scalar twin per vector kernel: the self-check's
// oracles.
type scalarKernels struct {
	addVecMat     func(dst, x, b []float64, stride int)
	addMatVec     func(dst, b, x []float64)
	addMatMulATB  func(out, a, b []float64, rows, ac, bc int)
	adam          func(w, g, m, v []float64, k *adamCoeffs)
	sigmoid, tanh func(dst, src []float64)
}

// scalarTwins are the package's own scalar loops.
var scalarTwins = scalarKernels{addVecMatGo, addMatVecGo, addMatMulATBGo, adamGo, sigmoidGo, tanhGo}

// simdExpMax bounds the inputs the vector activations take: for |x| below
// it, every exp argument the replicas form stays in archExp's normal range.
const simdExpMax = 708

// vecMatInBounds reports whether every row addVecMat reads, b[k*stride:][:n]
// for k < nx, lies inside a b of length nb: the condition under which the
// scalar loop does not panic. The vector kernel runs only when it holds, so
// it never reads past b and an out-of-range call panics where it always has.
func vecMatInBounds(n, nx, nb, stride int) bool {
	switch {
	case nx == 0:
		return true
	case stride < 0 || n > nb:
		return false
	}
	return stride == 0 || nx-1 <= (nb-n)/stride
}

// lanesInto applies f to src through kernel, which writes leading blocks of
// four and returns how many elements it wrote: it stops before a block it
// declines and before a tail of fewer than four, which f then computes.
// dst is at least as long as src, and is src or does not overlap it.
func lanesInto(dst, src []float64, kernel func(dst, src []float64) int, f func(float64) float64) {
	for i := 0; i < len(src); {
		i += kernel(dst[i:], src[i:])
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = f(src[i])
		}
	}
}

func sigmoidSIMD(dst, src []float64) { lanesInto(dst, src, sigmoidAVX2, Sigmoid) }

func tanhSIMD(dst, src []float64) { lanesInto(dst, src, tanhAVX2, math.Tanh) }

// simdProbes is the self-check's input table: both sides of each branch
// boundary the replicas blend (±0, tanh's 0.625 and 0.5·MAXLOG, the 708
// hand-off), tiny and subnormal values, and a sweep across the whole range
// laid out so blocks of four mix regions. The values the replicas hand to
// the scalar functions fill the first three blocks, so they share no block
// with the rest.
func simdProbes() []float64 {
	below := math.Nextafter(simdExpMax, 0)
	p := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64,
		-math.MaxFloat64, 709.8, -709.8, 1000,
		simdExpMax, -simdExpMax, math.Nextafter(simdExpMax, 1000), -1000,
		0, math.Copysign(0, -1), 1e-9, -1e-9,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		1e-300, -1e-300, below, -below,
	}
	for _, edge := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 1, 0.5} {
		for _, x := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
			p = append(p, x, -x)
		}
	}
	for x := -707.0; x <= 707; x += 7.3 {
		p = append(p, x, x/97, -x/61)
	}
	return p
}

// actSelfCheck reports whether the vector activations reproduce the given
// scalar twins bit for bit on simdProbes, any NaN matching any NaN. init
// passes the package's own scalar loops; a test passes a corrupted one.
func actSelfCheck(twin scalarKernels) bool {
	probes := simdProbes()
	for _, f := range []struct{ vec, ref func(dst, src []float64) }{{sigmoidSIMD, twin.sigmoid}, {tanhSIMD, twin.tanh}} {
		got, want := make([]float64, len(probes)), make([]float64, len(probes))
		f.vec(got, probes)
		f.ref(want, probes)
		if !sameBits(got, want) {
			return false
		}
	}
	return true
}

// arithSelfCheck is actSelfCheck for the arithmetic kernels, on the finite
// probes.
func arithSelfCheck(twin scalarKernels) bool {
	var finite []float64
	for _, v := range simdProbes() {
		if math.Abs(v) < 1e3 {
			finite = append(finite, v)
		}
	}
	fill := func(n, seed int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = finite[(7*i+seed)%len(finite)]
		}
		return s
	}
	same := func(vec, ref func(dst []float64), n int) bool {
		got, want := fill(n, 3), fill(n, 3)
		vec(got)
		ref(want)
		return sameBits(got, want)
	}
	// Every column tail (16-, 4- and 1-wide) and a row stride wider than dst.
	for _, s := range [][3]int{{23, 7, 29}, {64, 37, 64}, {3, 2, 3}} {
		n, nx, stride := s[0], s[1], s[2]
		b, x := fill((nx-1)*stride+n, 0), fill(nx, 1)
		if !same(func(d []float64) { addVecMatAVX2(d, x, b, stride) }, func(d []float64) { twin.addVecMat(d, x, b, stride) }, n) {
			return false
		}
	}
	// Rows through every block (8, 4, 2, 1), odd and even row lengths.
	for _, s := range [][2]int{{15, 7}, {8, 64}, {3, 1}, {6, 2}, {1, 5}} {
		n, c := s[0], s[1]
		b, x := fill(n*c, 0), fill(c, 1)
		if !same(func(d []float64) { addMatVecAVX2(d, b, x) }, func(d []float64) { twin.addMatVec(d, b, x) }, n) {
			return false
		}
	}
	// Every column tail, a column range of a narrower than its rows, one row.
	for _, s := range [][4]int{{7, 3, 5, 23}, {10, 2, 2, 16}, {1, 1, 1, 3}} {
		rows, nk, ac, bc := s[0], s[1], s[2], s[3]
		a, b := fill(rows*ac, 0), fill(rows*bc, 1)
		if !same(func(d []float64) { addMatMulATBAVX2(d, a, b, rows, ac, bc) }, func(d []float64) { twin.addMatMulATB(d, a, b, rows, ac, bc) }, nk*bc) {
			return false
		}
	}
	// Adam with every finite probe as a gradient, from moments of either
	// sign (a negative second moment takes the square root of a negative).
	// Each side updates its own copy of all three of w, m and v.
	n := len(finite) &^ 3
	k := adamCoeffs{0.9, 1 - 0.9, 0.999, 1 - 0.999, 0.19, 0.002997, 0.01, 1e-8}
	g := fill(n, 0)
	run := func(f func(w, g, m, v []float64, k *adamCoeffs)) []float64 {
		w, m, v := fill(n, 1), fill(n, 2), fill(n, 5)
		f(w, g, m, v, &k)
		return append(append(w, m...), v...)
	}
	return sameBits(run(adamAVX2), run(twin.adam))
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// except that any NaN matches any NaN: x86 picks a NaN's payload by operand
// order, and no result the repository pins is a NaN.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}
