package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// The vector kernels are held to their scalar twins with ==: both paths are
// called directly, so the scalar loops stay tested on AVX2 hardware too.
// A test of one family runs where init turned that family on.

func needArith(t testing.TB) {
	t.Helper()
	if !arithSIMD {
		t.Skip("vector arithmetic off: only the scalar path runs here")
	}
}

func needAct(t testing.TB) {
	t.Helper()
	if !actSIMD {
		t.Skip("vector activations off: only the scalar path runs here")
	}
}

// TestSIMDEnabled: on a CPU with the features, the init self-check passed
// and the dispatchers take the vector arithmetic. The activations may be
// off only when GODEBUG has switched a CPU feature off for the runtime, so
// that math.Exp leaves the FMA path the replica copies — and then only
// because their own self-check fails.
func TestSIMDEnabled(t *testing.T) {
	t.Logf("AVX2+FMA %v, vector arithmetic on %v, vector activations on %v", simdSupported(), arithSIMD, actSIMD)
	if !simdSupported() {
		return
	}
	if !arithSIMD {
		t.Fatal("the CPU has AVX2 and FMA but the init self-check disabled the vector arithmetic")
	}
	if actSIMD != actSelfCheck(scalarTwins) {
		t.Fatalf("vector activations on %v, but their self-check says %v", actSIMD, !actSIMD)
	}
	if !actSIMD && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Fatal("the CPU has AVX2 and FMA, GODEBUG leaves them on, but the init self-check disabled the vector activations")
	}
}

// TestSIMDSelfCheckRejectsMismatch: a scalar twin that disagrees with its
// vector kernel on one probe makes its family's self-check — and so init —
// turn that family's vector path off.
func TestSIMDSelfCheckRejectsMismatch(t *testing.T) {
	needArith(t)
	if !arithSelfCheck(scalarTwins) {
		t.Fatal("arithmetic self-check rejects the package's own scalar loops")
	}
	flip := func(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }
	corrupt := func(f func(dst, src []float64)) func(dst, src []float64) {
		return func(dst, src []float64) { f(dst, src); dst[len(dst)/2] = flip(dst[len(dst)/2]) }
	}
	with := func(check func(scalarKernels) bool, edit func(*scalarKernels)) bool {
		k := scalarTwins
		edit(&k)
		return check(k)
	}
	cases := map[string]bool{
		"addVecMat": with(arithSelfCheck, func(k *scalarKernels) {
			k.addVecMat = func(dst, x, b []float64, stride int) { addVecMatGo(dst, x, b, stride); dst[0] = flip(dst[0]) }
		}),
		// The last row: only the 1-row block of the odd-length probe computes it.
		"addMatVec (ABT)": with(arithSelfCheck, func(k *scalarKernels) {
			k.addMatVec = func(dst, b, x []float64) {
				addMatVecGo(dst, b, x)
				if len(dst) == 15 {
					dst[14] = flip(dst[14])
				}
			}
		}),
		"addMatMulATB": with(arithSelfCheck, func(k *scalarKernels) {
			k.addMatMulATB = func(out, a, b []float64, rows, ac, bc int) {
				addMatMulATBGo(out, a, b, rows, ac, bc)
				out[len(out)-1] = flip(out[len(out)-1])
			}
		}),
		// The second moment only, at the last element.
		"adam": with(arithSelfCheck, func(k *scalarKernels) {
			k.adam = func(w, g, m, v []float64, c *adamCoeffs) {
				adamGo(w, g, m, v, c)
				v[len(v)-1] = flip(v[len(v)-1])
			}
		}),
	}
	if actSIMD {
		if !actSelfCheck(scalarTwins) {
			t.Fatal("activation self-check rejects the package's own scalar loops")
		}
		cases["sigmoid"] = with(actSelfCheck, func(k *scalarKernels) { k.sigmoid = corrupt(sigmoidGo) })
		cases["tanh"] = with(actSelfCheck, func(k *scalarKernels) { k.tanh = corrupt(tanhGo) })
	}
	for name, ok := range cases {
		if ok {
			t.Errorf("self-check passed with a corrupted %s twin", name)
		}
	}
}

// specials are the inputs every activation parity check includes.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
	1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64,
	708, -708, 0.625, -0.625, 44.0148, -44.0148, 0.5 * 8.8029691931113054295988e+01,
}

// activationInputs is a dense sweep of [-750, 750] (2^20 points), ±64 ulps
// around every branch boundary, the specials, and random float bits.
func activationInputs() []float64 {
	const sweep = 1 << 20
	in := make([]float64, 0, sweep+1<<14)
	for i := 0; i < sweep; i++ {
		in = append(in, -750+1500*float64(i)/(sweep-1))
	}
	for _, edge := range []float64{0, 0.625, 0.5 * 8.8029691931113054295988e+01, 708} {
		for _, s := range []float64{1, -1} {
			x := s * edge
			for i := 0; i < 64; i++ {
				x = math.Nextafter(x, math.Inf(-1))
			}
			for i := 0; i < 129; i++ {
				in = append(in, x)
				x = math.Nextafter(x, math.Inf(1))
			}
		}
	}
	in = append(in, specials...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<12; i++ {
		in = append(in, math.Float64frombits(rng.Uint64()))
	}
	return in
}

var activations = []struct {
	name      string
	vec, ref  func(dst, src []float64)
	dispatch  func(dst, src []float64)
	reference func(float64) float64
}{
	{"sigmoid", sigmoidSIMD, sigmoidGo, SigmoidInto, Sigmoid},
	{"tanh", tanhSIMD, tanhGo, TanhInto, math.Tanh},
}

func firstMismatch(got, want []float64) int {
	for i := range want {
		if !sameBits(got[i:i+1], want[i:i+1]) {
			return i
		}
	}
	return -1
}

func TestActivationsSIMDParity(t *testing.T) {
	needAct(t)
	in := activationInputs()
	for _, f := range activations {
		got, want := make([]float64, len(in)), make([]float64, len(in))
		f.vec(got, in)
		f.ref(want, in)
		if i := firstMismatch(got, want); i >= 0 {
			t.Errorf("%s(%v [%#x]) = %v vector, %v scalar", f.name, in[i], math.Float64bits(in[i]), got[i], want[i])
		}
	}
}

// TestActivationsSIMDLengthsAndInPlace: every length 0–67 (each tail), at
// every alignment of the specials within a block, out of place with a
// longer dst whose tail must survive, and in place as InferStep calls it.
func TestActivationsSIMDLengthsAndInPlace(t *testing.T) {
	needAct(t)
	rng := rand.New(rand.NewSource(3))
	pool := make([]float64, 256)
	for i := range pool {
		pool[i] = 20 * rng.NormFloat64()
	}
	for i, v := range specials {
		pool[7*i%len(pool)] = v
	}
	for _, f := range activations {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				src := pool[off*11:][:n]
				got := make([]float64, n+3)
				got[n], got[n+1], got[n+2] = 1, 2, 3
				want := make([]float64, n)
				f.vec(got, src)
				f.ref(want, src)
				if i := firstMismatch(got[:n], want); i >= 0 {
					t.Fatalf("%s len %d off %d: [%d] = %v vector, %v scalar", f.name, n, off, i, got[i], want[i])
				}
				if got[n] != 1 || got[n+1] != 2 || got[n+2] != 3 {
					t.Fatalf("%s len %d wrote past len(src)", f.name, n)
				}
				buf := append([]float64(nil), src...)
				f.vec(buf, buf)
				if i := firstMismatch(buf, want); i >= 0 {
					t.Fatalf("%s in place len %d off %d: [%d] = %v, want %v", f.name, n, off, i, buf[i], want[i])
				}
			}
		}
	}
}

// TestActivationsShortDstPanics: a dst shorter than src panics after
// writing what fits, on either path.
func TestActivationsShortDstPanics(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5, 6}
	for _, f := range activations {
		dst := make([]float64, 5)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short dst did not panic", f.name)
				}
			}()
			f.dispatch(dst, src)
		}()
		for i, v := range dst {
			if v != f.reference(src[i]) {
				t.Errorf("%s short dst [%d] = %v, want %v", f.name, i, v, f.reference(src[i]))
			}
		}
	}
}

func normals(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}

// randPool is a reusable buffer of normal floats sprinkled with specials.
func randPool(n int, seed int64) []float64 {
	p := normals(n, seed)
	for i, v := range specials {
		p[(1009*i+13)%n] = v
	}
	return p
}

// TestAddVecMatSIMDParity: every dst length 0–67 (each 16-, 4- and 1-wide
// tail), every x length 0–40, strides equal to and wider than len(dst).
func TestAddVecMatSIMDParity(t *testing.T) {
	needArith(t)
	pool := randPool(1<<13, 5)
	for n := 0; n <= 67; n++ {
		for nx := 0; nx <= 40; nx++ {
			for _, stride := range []int{n, n + 5} {
				off := (n*41 + nx) % 512
				b := pool[off:][:max(nx-1, 0)*stride+n]
				x := pool[(off+7*n)%1024:][:nx]
				got := append([]float64(nil), pool[off+3:][:n]...)
				want := append([]float64(nil), got...)
				addVecMatAVX2(got, x, b, stride)
				addVecMatGo(want, x, b, stride)
				if i := firstMismatch(got, want); i >= 0 {
					t.Fatalf("n %d nx %d stride %d: dst[%d] = %v vector, %v scalar", n, nx, stride, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAddVecMatBounds: wherever addVecMatGo would read past b — or not —
// addVecMat behaves the same: the same panic after the same partial
// writes, or the same result.
func TestAddVecMatBounds(t *testing.T) {
	pool := randPool(64, 9)
	run := func(f func(dst, x, b []float64, stride int), dst, x, b []float64, stride int) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f(dst, x, b, stride)
		return ""
	}
	panics := 0
	for n := 0; n <= 6; n++ {
		for nx := 0; nx <= 5; nx++ {
			for stride := -1; stride <= 8; stride++ {
				for nb := 0; nb <= 40; nb++ {
					x, b := pool[:nx], pool[10:][:nb]
					got := append([]float64(nil), pool[50:][:n]...)
					want := append([]float64(nil), got...)
					gotMsg := run(addVecMat, got, x, b, stride)
					wantMsg := run(addVecMatGo, want, x, b, stride)
					if gotMsg != wantMsg || firstMismatch(got, want) >= 0 {
						t.Fatalf("n %d nx %d stride %d len(b) %d: %q %v, scalar %q %v", n, nx, stride, nb, gotMsg, got, wantMsg, want)
					}
					if wantMsg != "" {
						panics++
					}
				}
			}
		}
	}
	if panics == 0 {
		t.Fatal("no case read past b")
	}
}

// TestAddMatVecSIMDParity: every row count 0–20 (each 8-, 4-, 2- and 1-row
// block and leftover), every row length 0–41 (odd and even), dst already
// holding values.
func TestAddMatVecSIMDParity(t *testing.T) {
	needArith(t)
	pool := randPool(1<<13, 11)
	for n := 0; n <= 20; n++ {
		for c := 1; c <= 41; c++ {
			off := (n*43 + c) % 512
			b, x := pool[off:][:n*c], pool[(off+5*c)%1024:][:c]
			got := append(make([]float64, 0, n+1), pool[off+9:][:n]...)
			want := append([]float64(nil), got...)
			addMatVecAVX2(got, b, x)
			addMatVecGo(want, b, x)
			if i := firstMismatch(got, want); i >= 0 {
				t.Fatalf("rows %d len %d: dst[%d] = %v vector, %v scalar", n, c, i, got[i], want[i])
			}
		}
	}
}

// TestAddMatMulATBSIMDParity: every out row length 0–37 (each 16-, 4- and
// 1-wide tail), 1–5 out rows from a column range of a wider a, 1–11 rows of
// a and b.
func TestAddMatMulATBSIMDParity(t *testing.T) {
	needArith(t)
	pool := randPool(1<<13, 13)
	for bc := 0; bc <= 37; bc++ {
		for nk := 1; nk <= 5; nk++ {
			for rows := 1; rows <= 11; rows++ {
				ac := nk + rows%3
				off := (bc*31 + nk*7 + rows) % 512
				a, b := pool[off:][:rows*ac], pool[(off+3*bc)%1024:][:rows*bc]
				got := append([]float64(nil), pool[off+17:][:nk*bc]...)
				want := append([]float64(nil), got...)
				addMatMulATBAVX2(got, a, b, rows, ac, bc)
				addMatMulATBGo(want, a, b, rows, ac, bc)
				if i := firstMismatch(got, want); i >= 0 {
					t.Fatalf("bc %d out rows %d rows %d: out[%d] = %v vector, %v scalar", bc, nk, rows, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAdamSIMDParity: AdamUpdate on either path equals adamGo on every
// length 0–67 (each tail after the blocks of four), at slice offsets 0–3
// into their buffers (trainer shards start anywhere), with gradients,
// weights and moments drawn from normals sprinkled with NaN, ±Inf,
// subnormals and extremes. The kernel also runs alone on whole blocks.
func TestAdamSIMDParity(t *testing.T) {
	pool := randPool(1<<12, 19)
	steps := []AdamStep{
		{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, BC1: 0.1, BC2: 0.001},
		{LR: 1e-3, Beta1: 0.5, Beta2: 0.25, Eps: 0x1p-1074, BC1: 0.75, BC2: 0.9375},
		{LR: 3, Beta1: 0, Beta2: 1, Eps: 0, BC1: 1, BC2: 1e-300},
	}
	for si, s := range steps {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				at := func(seed int) []float64 {
					return append(make([]float64, off), pool[(seed*257+n*13+off)%2048:][:n]...)[off:]
				}
				g := at(0)
				gw, gm, gv := at(1), at(2), at(3)
				ww, wm, wv := at(1), at(2), at(3)
				k := adamCoeffs{s.Beta1, 1 - s.Beta1, s.Beta2, 1 - s.Beta2, s.BC1, s.BC2, s.LR, s.Eps}
				AdamUpdate(gw, g, gm, gv, s)
				adamGo(ww, g, wm, wv, &k)
				for name, p := range map[string][2][]float64{"w": {gw, ww}, "m": {gm, wm}, "v": {gv, wv}} {
					if i := firstMismatch(p[0], p[1]); i >= 0 {
						t.Fatalf("step %d len %d off %d: %s[%d] = %v, scalar %v (g %v)", si, n, off, name, i, p[0][i], p[1][i], g[i])
					}
				}
				if !arithSIMD || n%4 != 0 {
					continue
				}
				vw, vm, vv := at(1), at(2), at(3)
				adamAVX2(vw, g, vm, vv, &k)
				if !sameBits(vw, ww) || !sameBits(vm, wm) || !sameBits(vv, wv) {
					t.Fatalf("step %d len %d off %d: the kernel alone differs from adamGo", si, n, off)
				}
			}
		}
	}
}

// TestAdamUpdateLengths: w, m and v longer than g keep their tails; a
// shorter one panics.
func TestAdamUpdateLengths(t *testing.T) {
	g := []float64{1, -2, 3, -4, 5}
	w, m, v := make([]float64, 7), make([]float64, 7), make([]float64, 7)
	w[5], m[6], v[5] = 9, 8, 7
	AdamUpdate(w, g, m, v, AdamStep{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, BC1: 0.1, BC2: 0.001})
	if w[5] != 9 || w[6] != 0 || m[5] != 0 || m[6] != 8 || v[5] != 7 || v[6] != 0 {
		t.Fatalf("tails written: w %v m %v v %v", w[5:], m[5:], v[5:])
	}
	if w[0] >= 0 || w[1] <= 0 {
		t.Fatalf("w %v does not step against g", w[:5])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a short v did not panic")
		}
	}()
	AdamUpdate(w, g, m, v[:4:4], AdamStep{})
}

// TestBackwardKernelsMatchScalar: the exported GEMM backward halves, on
// whichever path this host runs, equal the scalar loops they replaced, at
// the training shapes and at odd ones.
func TestBackwardKernelsMatchScalar(t *testing.T) {
	pool := randPool(1<<14, 17) // each operand below is at most 2368 floats
	mk := func(r, c, off int) *Matrix {
		return &Matrix{Rows: r, Cols: c, Data: append([]float64(nil), pool[off:][:r*c]...)}
	}
	for _, s := range [][3]int{{10, 24, 16}, {10, 16, 24}, {1, 64, 37}, {7, 5, 3}, {3, 1, 9}} {
		r, k, c := s[0], s[1], s[2]
		// ABT: out (r×k) += a (r×c) · bᵀ, b k×c.
		a, b := mk(r, c, 0), mk(k, c, 2500)
		got, want := mk(r, k, 5000), mk(r, k, 5000)
		AddMatMulABT(got, a, b)
		for i := 0; i < r; i++ {
			for kk := 0; kk < k; kk++ {
				var s0, s1 float64
				j := 0
				for ; j+2 <= c; j += 2 {
					s0 += a.Data[i*c+j] * b.Data[kk*c+j]
					s1 += a.Data[i*c+j+1] * b.Data[kk*c+j+1]
				}
				if j < c {
					s0 += a.Data[i*c+j] * b.Data[kk*c+j]
				}
				want.Data[i*k+kk] += s0 + s1
			}
		}
		if i := firstMismatch(got.Data, want.Data); i >= 0 {
			t.Fatalf("ABT %v: [%d] = %v, scalar %v", s, i, got.Data[i], want.Data[i])
		}
		// ATB: out (k×c) += aᵀ · b, a r×k, b r×c.
		a, b = mk(r, k, 7500), mk(r, c, 10000)
		got, want = mk(k, c, 12500), mk(k, c, 12500)
		AddMatMulATB(got, a, b)
		for i := 0; i < r; i++ {
			for kk := 0; kk < k; kk++ {
				for j := 0; j < c; j++ {
					want.Data[kk*c+j] += a.Data[i*k+kk] * b.Data[i*c+j]
				}
			}
		}
		if i := firstMismatch(got.Data, want.Data); i >= 0 {
			t.Fatalf("ATB %v: [%d] = %v, scalar %v", s, i, got.Data[i], want.Data[i])
		}
	}
}

// FuzzSIMDKernels: arbitrary float bits, lengths and strides; each vector
// kernel equals its scalar twin.
func FuzzSIMDKernels(f *testing.F) {
	seed := make([]byte, 0, 8*len(specials))
	for _, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(5), uint8(3), uint8(2))
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(40), uint8(67), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, nx, n, pad uint8) {
		vals := make([]float64, len(data)/8)
		folded := make([]float64, len(vals)) // most raw bits are huge: also fold them into the vector range
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			folded[i] = math.Mod(vals[i], 750)
		}
		// ReLU's mask against its branch, on any host: the raw bits as
		// inputs, and as gradients rotated by nx against them.
		relu, branch := make([]float64, len(vals)), make([]float64, len(vals))
		ReLUInto(relu, vals)
		reluBranchy(branch, vals)
		for i := range vals {
			if math.Float64bits(relu[i]) != math.Float64bits(branch[i]) {
				t.Fatalf("ReLU(%#x) = %#x, branch %#x", math.Float64bits(vals[i]), math.Float64bits(relu[i]), math.Float64bits(branch[i]))
			}
		}
		if len(vals) > 0 {
			g := append(vals[int(nx)%len(vals):len(vals):len(vals)], vals[:int(nx)%len(vals)]...)
			copy(relu, folded)
			copy(branch, folded)
			ReLUGradInto(relu, g, vals)
			reluGradBranchy(branch, g, vals)
			for i := range vals {
				if math.Float64bits(relu[i]) != math.Float64bits(branch[i]) {
					t.Fatalf("ReLU grad x %#x g %#x ga %#x: %#x, branch %#x", math.Float64bits(vals[i]), math.Float64bits(g[i]), math.Float64bits(folded[i]), math.Float64bits(relu[i]), math.Float64bits(branch[i]))
				}
			}
		}
		needArith(t)
		for _, in := range [][]float64{vals, folded} {
			for _, a := range activations {
				if !actSIMD {
					break
				}
				got, want := make([]float64, len(in)), make([]float64, len(in))
				a.vec(got, in)
				a.ref(want, in)
				if i := firstMismatch(got, want); i >= 0 {
					t.Fatalf("%s(%#x) = %v vector, %v scalar", a.name, math.Float64bits(in[i]), got[i], want[i])
				}
			}
		}
		if len(vals) == 0 {
			return
		}
		// Adam through its dispatcher: any length, any offset, the raw bits
		// as gradients, weights and moments, the first eight as coefficients.
		for _, in := range [][]float64{vals, folded} {
			off, ln := int(pad)%4, int(n)%68
			cyc := func(seed int) []float64 {
				s := make([]float64, off+ln)
				for i := range s {
					s[i] = in[(3*i+seed)%len(in)]
				}
				return s[off:]
			}
			var c [8]float64
			for i := range c {
				c[i] = in[(i+int(nx))%len(in)]
			}
			k := adamCoeffs{c[0], 1 - c[0], c[1], 1 - c[1], c[2], c[3], c[4], c[5]}
			s := AdamStep{LR: c[4], Beta1: c[0], Beta2: c[1], Eps: c[5], BC1: c[2], BC2: c[3]}
			g := cyc(0)
			gw, gm, gv := cyc(1), cyc(2), cyc(3)
			ww, wm, wv := cyc(1), cyc(2), cyc(3)
			AdamUpdate(gw, g, gm, gv, s)
			adamGo(ww, g, wm, wv, &k)
			for name, p := range map[string][2][]float64{"w": {gw, ww}, "m": {gm, wm}, "v": {gv, wv}} {
				if i := firstMismatch(p[0], p[1]); i >= 0 {
					t.Fatalf("adam len %d off %d %s[%d] = %v vector, %v scalar (g %v)", ln, off, name, i, p[0][i], p[1][i], g[i])
				}
			}
		}
		cycle := func(k int) []float64 {
			s := make([]float64, k)
			for i := range s {
				s[i] = vals[(i*5+k)%len(vals)]
			}
			return s
		}
		cols, rows := int(n)%68, int(nx)%41
		stride := cols + int(pad)%8
		x, b := cycle(rows), cycle(max(rows-1, 0)*stride+cols)
		got := cycle(cols)
		want := append([]float64(nil), got...)
		addVecMatAVX2(got, x, b, stride)
		addVecMatGo(want, x, b, stride)
		if i := firstMismatch(got, want); i >= 0 {
			t.Fatalf("addVecMat n %d nx %d stride %d: dst[%d] = %v vector, %v scalar", cols, rows, stride, i, got[i], want[i])
		}
		// addMatVec: rows × len(x) with odd lengths and 1–3 leftover rows.
		n8, c := int(n)%21, 1+int(nx)%41
		b, x = cycle(n8*c), cycle(c)
		got = cycle(n8)
		want = append([]float64(nil), got...)
		addMatVecAVX2(got, b, x)
		addMatVecGo(want, b, x)
		if i := firstMismatch(got, want); i >= 0 {
			t.Fatalf("addMatVec rows %d len %d: dst[%d] = %v vector, %v scalar", n8, c, i, got[i], want[i])
		}
		// The ATB panel: any out row length, 1–4 out rows of a wider a.
		nk, ar := 1+int(pad)%4, 1+int(nx)%11
		ac := nk + int(pad)/4%3
		a := cycle(ar * ac)
		b = cycle(ar * cols)
		got = cycle(nk * cols)
		want = append([]float64(nil), got...)
		addMatMulATBAVX2(got, a, b, ar, ac, cols)
		addMatMulATBGo(want, a, b, ar, ac, cols)
		if i := firstMismatch(got, want); i >= 0 {
			t.Fatalf("addMatMulATB rows %d out rows %d bc %d: out[%d] = %v vector, %v scalar", ar, nk, cols, i, got[i], want[i])
		}
	})
}

var benchSink float64

// BenchmarkAddVecMat is the LSTM step's shape: [x | h] of 24–37 floats
// into the 4·16 gate pre-activations.
func BenchmarkAddVecMat(b *testing.B) {
	pool := normals(64*40+64, 1)
	for _, nx := range []int{24, 37} {
		x, w, dst := pool[:nx], pool[64:][:nx*64], make([]float64, 64)
		for _, path := range []struct {
			name string
			f    func(dst, x, b []float64, stride int)
		}{{"scalar", addVecMatGo}, {"simd", addVecMatAVX2}} {
			b.Run(fmt.Sprintf("x=%d/%s", nx, path.name), func(b *testing.B) {
				if path.name == "simd" && !arithSIMD {
					b.Skip("vector path off")
				}
				for i := 0; i < b.N; i++ {
					clear(dst)
					path.f(dst, x, w, 64)
				}
				benchSink = dst[0]
			})
		}
	}
}

// backwardPaths runs one MatMul backward half on each path: the scalar
// twin, and the vector kernel when this host takes it.
func backwardPaths(b *testing.B, scalar, vec func()) {
	for _, path := range []struct {
		name string
		f    func()
	}{{"scalar", scalar}, {"simd", vec}} {
		b.Run(path.name, func(b *testing.B) {
			if path.name == "simd" && !arithSIMD {
				b.Skip("vector path off")
			}
			for i := 0; i < b.N; i++ {
				path.f()
			}
		})
	}
}

// BenchmarkAddMatMulABT is ∂X += ∂Out·Wᵀ of the hottest training MatMul,
// X (10×24) · W (24×16): ten rows of 24 dot products of length 16.
func BenchmarkAddMatMulABT(b *testing.B) {
	pool := normals(1024, 3)
	dout, w, dx := pool[:160], pool[160:][:384], make([]float64, 240)
	rows := func(f func(dst, b, x []float64)) func() {
		return func() {
			for i := 0; i < 10; i++ {
				f(dx[i*24:][:24], w, dout[i*16:][:16])
			}
		}
	}
	backwardPaths(b, rows(addMatVecGo), rows(addMatVecAVX2))
}

// BenchmarkAddMatMulATB is ∂W += Xᵀ·∂Out of the same MatMul: (10×24)ᵀ·(10×16).
func BenchmarkAddMatMulATB(b *testing.B) {
	pool := normals(1024, 4)
	x, dout, dw := pool[:240], pool[240:][:160], make([]float64, 384)
	backwardPaths(b,
		func() { addMatMulATBGo(dw, x, dout, 10, 24, 16) },
		func() { addMatMulATBAVX2(dw, x, dout, 10, 24, 16) })
}

// benchActivation times one activation over 48 floats — an LSTM step's
// sigmoid gates at hidden 24 — on each path.
func benchActivation(b *testing.B, scalar, vec func(dst, src []float64)) {
	src := normals(48, 2)
	dst := make([]float64, len(src))
	for _, path := range []struct {
		name string
		f    func(dst, src []float64)
	}{{"scalar", scalar}, {"simd", vec}} {
		b.Run(path.name, func(b *testing.B) {
			if path.name == "simd" && !actSIMD {
				b.Skip("vector path off")
			}
			for i := 0; i < b.N; i++ {
				path.f(dst, src)
			}
			benchSink = dst[0]
		})
	}
}

func BenchmarkSigmoidInto(b *testing.B) { benchActivation(b, sigmoidGo, sigmoidSIMD) }

func BenchmarkTanhInto(b *testing.B) { benchActivation(b, tanhGo, tanhSIMD) }

// BenchmarkAdamUpdate is one Adam step over the widest DIN weight (24×16)
// and over a RAPID-sized tensor, on each path; then over as many weights
// as DIN has on TaobaoLike (1040), as they are and with every hundredth
// first moment subnormal and its gradient zero. That is what long runs of
// zero gradients leave behind in DIN.Fit, where the first moments decay by
// β1 a step until they leave the normal range; each subnormal operand
// costs the CPU a microcode assist.
func BenchmarkAdamUpdate(b *testing.B) {
	for _, c := range []struct {
		n         int
		subnormal bool
	}{{384, false}, {4096, false}, {1040, false}, {1040, true}} {
		w, g, m, v := normals(c.n, 5), normals(c.n, 6), normals(c.n, 7), normals(c.n, 8)
		for i := range v {
			v[i] *= v[i]
		}
		name := fmt.Sprintf("n=%d", c.n)
		var sub []int
		if c.subnormal {
			name += "/subnormal=1%"
			for i := 0; i < c.n; i += 100 {
				sub, g[i] = append(sub, i), 0
			}
		}
		k := adamCoeffs{0.9, 1 - 0.9, 0.999, 1 - 0.999, 0.1, 0.001, 1e-9, 1e-8}
		for _, path := range []struct {
			name string
			f    func(w, g, m, v []float64, k *adamCoeffs)
		}{{"scalar", adamGo}, {"simd", adamAVX2}} {
			b.Run(name+"/"+path.name, func(b *testing.B) {
				if path.name == "simd" && !arithSIMD {
					b.Skip("vector path off")
				}
				for i := 0; i < b.N; i++ {
					for _, j := range sub {
						m[j] = 0x1p-1030 // the step decays it: set it again
					}
					path.f(w, g, m, v, &k)
				}
				benchSink = w[0]
			})
		}
	}
}
