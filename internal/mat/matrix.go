// Package mat provides dense float64 matrices and the small set of linear
// algebra routines the rest of the library is built on. It is deliberately
// BLAS-free and allocation-conscious: every neural component in this
// repository (internal/nn and the models built on it) reduces to the
// operations defined here.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty matrix. Matrices returned by the constructors
// in this package own their backing slice; methods that return a new Matrix
// never alias the receiver unless documented otherwise.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (i, j) lives at
	// Data[i*Cols+j].
	Data []float64
}

// New returns a zero-initialized rows×cols matrix.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a rows×cols matrix that takes ownership of data.
// It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix whose i-th row is rows[i]. All rows must have
// equal length. An empty input yields a 0×0 matrix.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: FromRows ragged input: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// RowVector builds a 1×len(v) matrix copying v.
func RowVector(v []float64) *Matrix {
	m := New(1, len(v))
	copy(m.Data, v)
	return m
}

// ColVector builds a len(v)×1 matrix copying v.
func ColVector(v []float64) *Matrix {
	m := New(len(v), 1)
	copy(m.Data, v)
	return m
}

// At returns element (i, j). Bounds are checked by the slice access.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all entries of m to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all entries of m to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

func (m *Matrix) assertSameShape(n *Matrix, op string) {
	if !m.SameShape(n) {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

// AddInPlace accumulates n into m and returns m.
func (m *Matrix) AddInPlace(n *Matrix) *Matrix {
	m.assertSameShape(n, "AddInPlace")
	for i := range m.Data {
		m.Data[i] += n.Data[i]
	}
	return m
}

// ScaleInPlace multiplies every entry by s and returns m.
func (m *Matrix) ScaleInPlace(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaledInPlace accumulates s·n into m and returns m.
func (m *Matrix) AddScaledInPlace(s float64, n *Matrix) *Matrix {
	m.assertSameShape(n, "AddScaledInPlace")
	for i := range m.Data {
		m.Data[i] += s * n.Data[i]
	}
	return m
}

// MatMul returns the matrix product m·n. It panics unless m.Cols == n.Rows.
//
// MatMul allocates its result and is therefore a cold-path convenience:
// hot paths must use MatMulInto with a caller-owned (typically pooled)
// output, which is how every tape op and batch-scoring kernel in this
// repository is routed. The same applies to the other allocating helpers
// (Add, Sub, Scale, T, Apply): the nn tape performs these element-wise ops
// through its own pooled buffers, so no remaining hot path allocates
// through them — see the allocation audit notes in DESIGN.md.
func (m *Matrix) MatMul(n *Matrix) *Matrix {
	out := New(m.Rows, n.Cols)
	MatMulInto(out, m, n)
	return out
}

// MatMulInto computes out = a·b, overwriting out. out must be a.Rows×b.Cols
// and must not alias a or b. The kernel is a register-blocked ikj loop: four
// rows of b are folded per pass over the output row, so each out element is
// loaded and stored once per four multiply-adds while all three operands
// stream through contiguous memory. The data here is dense (features,
// activations, gradients), so there is deliberately no zero-skip branch in
// the inner loop: on dense inputs the branch misprediction costs more than
// the skipped arithmetic saves.
//
// Above the size cutoff and with SetWorkers above one, the output is
// partitioned into row panels (column panels for short, wide shapes) computed
// on the package worker pool; each element's accumulation order is unchanged,
// so the result is bitwise identical to the serial kernel (see parallel.go).
func MatMulInto(out, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulInto output %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	if nw := Workers(); nw > 1 && a.Rows*a.Cols*b.Cols >= parCutoff {
		if a.Rows >= b.Cols {
			if parFor(a.Rows, nw, func(lo, hi int) { matMulPanel(out, a, b, lo, hi, 0, b.Cols) }) {
				return
			}
		} else if parFor(b.Cols, nw, func(lo, hi int) { matMulPanel(out, a, b, 0, a.Rows, lo, hi) }) {
			return
		}
	}
	matMulPanel(out, a, b, 0, a.Rows, 0, b.Cols)
}

// matMulPanel computes the [i0,i1)×[j0,j1) panel of out = a·b with the
// register-blocked ikj kernel. Panels write disjoint regions of out, and
// each element's k-order accumulation is identical for every panel split.
func matMulPanel(out, a, b *Matrix, i0, i1, j0, j1 int) {
	ac, bc := a.Cols, b.Cols
	for i := i0; i < i1; i++ {
		orow := out.Data[i*bc+j0 : i*bc+j1]
		for j := range orow {
			orow[j] = 0
		}
		addVecMat(orow, a.Data[i*ac:(i+1)*ac], b.Data[j0:], bc)
	}
}

// AddVecMat accumulates the vector–matrix product x·B into dst, where b
// holds B's len(x) rows of len(dst) floats back to back — typically a row
// range of a weight matrix read in place, W.Data[r0*W.Cols:]. Each dst[j]
// takes its terms in ascending k, so splitting a product into consecutive
// row blocks accumulated by successive calls leaves every bit unchanged.
// dst must not overlap x or b. This is the kernel of the tape-free
// inference forward.
func AddVecMat(dst, x, b []float64) { addVecMat(dst, x, b, len(dst)) }

// addVecMat is AddVecMat over rows stride floats apart: row k of B is
// b[k*stride:][:len(dst)]. It runs the vector kernel when it can
// (simd.go) and addVecMatGo otherwise; the two agree bit for bit.
func addVecMat(dst, x, b []float64, stride int) {
	if arithSIMD && vecMatInBounds(len(dst), len(x), len(b), stride) {
		addVecMatAVX2(dst, x, b, stride)
		return
	}
	addVecMatGo(dst, x, b, stride)
}

// addVecMatGo is the portable addVecMat and the vector kernel's oracle. Four
// rows are folded per pass over dst, so each dst element is loaded and
// stored once per four multiply-adds while every operand streams through
// contiguous memory.
func addVecMatGo(dst, x, b []float64, stride int) {
	n := len(dst)
	k := 0
	for ; k+4 <= len(x); k += 4 {
		x0, x1, x2, x3 := x[k], x[k+1], x[k+2], x[k+3]
		b0 := b[k*stride:][:n]
		b1 := b[(k+1)*stride:][:n]
		b2 := b[(k+2)*stride:][:n]
		b3 := b[(k+3)*stride:][:n]
		for j, o := range dst {
			dst[j] = o + x0*b0[j] + x1*b1[j] + x2*b2[j] + x3*b3[j]
		}
	}
	for ; k < len(x); k++ {
		xv := x[k]
		for j, bv := range b[k*stride:][:n] {
			dst[j] += xv * bv
		}
	}
}

// AddMatMulABT accumulates a·bᵀ into out: out (r×k) += a (r×c) · bᵀ (c×k,
// given as b k×c). This is the dA = dOut·Bᵀ half of the MatMul backward
// pass, fused so the transpose is never materialized: each output element
// is a dot product of two contiguous rows.
func AddMatMulABT(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("mat: AddMatMulABT shapes %dx%d += %dx%d · (%dx%d)ᵀ", out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if nw := Workers(); nw > 1 && a.Rows*b.Rows*a.Cols >= parCutoff {
		if a.Rows >= b.Rows {
			if parFor(a.Rows, nw, func(lo, hi int) { addMatMulABTPanel(out, a, b, lo, hi, 0, b.Rows) }) {
				return
			}
		} else if parFor(b.Rows, nw, func(lo, hi int) { addMatMulABTPanel(out, a, b, 0, a.Rows, lo, hi) }) {
			return
		}
	}
	addMatMulABTPanel(out, a, b, 0, a.Rows, 0, b.Rows)
}

// addMatMulABTPanel accumulates the [i0,i1)×[k0,k1) panel of out += a·bᵀ.
// Each out element is one private dot product, so any panel split leaves
// the arithmetic bitwise identical to the serial kernel.
func addMatMulABTPanel(out, a, b *Matrix, i0, i1, k0, k1 int) {
	c := a.Cols
	for i := i0; i < i1; i++ {
		AddMatVec(out.Data[i*out.Cols+k0:i*out.Cols+k1], b.Data[k0*c:k1*c], a.Data[i*c:(i+1)*c])
	}
}

// AddMatVec accumulates the matrix–vector product B·x into dst, where b
// holds B's len(dst) rows of len(x) floats back to back — typically a row
// range of a weight matrix read in place. Each dst[k] takes the dot product
// of x with row k as AddMatMulABT does: even and odd terms in two running
// sums, the odd tail added to the even one, then dst[k] += even + odd. dst
// must not overlap x or b. This is the backward pass's dh = W·∂gates. It
// runs the vector kernel when every row it reads lies inside b (simd.go)
// and addMatVecGo otherwise; the two agree bit for bit.
func AddMatVec(dst, b, x []float64) {
	if arithSIMD && len(x) > 0 && len(dst) <= len(b)/len(x) {
		addMatVecAVX2(dst, b, x)
		return
	}
	addMatVecGo(dst, b, x)
}

// addMatVecGo is the portable AddMatVec and the vector kernel's oracle.
func addMatVecGo(dst, b, x []float64) {
	c := len(x)
	for k := range dst {
		brow := b[k*c : k*c+c]
		var s0, s1 float64
		j := 0
		for ; j+2 <= c; j += 2 {
			s0 += x[j] * brow[j]
			s1 += x[j+1] * brow[j+1]
		}
		if j < c {
			s0 += x[j] * brow[j]
		}
		dst[k] += s0 + s1
	}
}

// AddMatMulATB accumulates aᵀ·b into out: out (k×c) += aᵀ (k×r, given as a
// r×k) · b (r×c). This is the dB = Aᵀ·dOut half of the MatMul backward
// pass, fused so the transpose is never materialized: the inner loop is an
// axpy over contiguous rows of b and out.
func AddMatMulATB(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AddMatMulATB shapes %dx%d += (%dx%d)ᵀ · %dx%d", out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if nw := Workers(); nw > 1 && a.Rows*a.Cols*b.Cols >= parCutoff {
		if parFor(a.Cols, nw, func(lo, hi int) { addMatMulATBPanel(out, a, b, lo, hi) }) {
			return
		}
	}
	addMatMulATBPanel(out, a, b, 0, a.Cols)
}

// addMatMulATBPanel accumulates out rows [k0,k1) of out += aᵀ·b: each worker
// scans every row i of a and b but touches only its own band of out, keeping
// i ascending per element — the same accumulation order as the serial kernel.
// The vector kernel takes the whole panel in one call.
func addMatMulATBPanel(out, a, b *Matrix, k0, k1 int) {
	bc := b.Cols
	panel := out.Data[k0*bc : k1*bc]
	if arithSIMD && wellFormed(a) && wellFormed(b) {
		addMatMulATBAVX2(panel, a.Data[k0:], b.Data, a.Rows, a.Cols, bc)
		return
	}
	addMatMulATBGo(panel, a.Data[k0:], b.Data, a.Rows, a.Cols, bc)
}

// wellFormed reports whether m's shape is non-negative and its Data holds
// every element the shape names: what the vector kernels need to stay
// inside it.
func wellFormed(m *Matrix) bool {
	return m.Rows >= 0 && m.Cols >= 0 && len(m.Data) >= m.Rows*m.Cols
}

// addMatMulATBGo is the ATB panel's portable kernel and the vector kernel's
// oracle: out holds len(out)/bc rows of bc floats, and row kk takes
// a[i·ac+kk]·b[i·bc:][:bc] for i ascending, an axpy per term, multiply then
// add.
func addMatMulATBGo(out, a, b []float64, rows, ac, bc int) {
	for i := 0; i < rows; i++ {
		brow := b[i*bc : i*bc+bc]
		for kk := 0; kk*bc < len(out); kk++ {
			av := a[i*ac+kk]
			orow := out[kk*bc : kk*bc+bc]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// T returns the transpose of m.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Sum returns the sum of all entries.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all entries, or 0 for an empty matrix.
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// SliceRows returns a copy of rows [from, to) of m.
func (m *Matrix) SliceRows(from, to int) *Matrix {
	if from < 0 || to > m.Rows || from > to {
		panic(fmt.Sprintf("mat: SliceRows [%d,%d) out of range for %d rows", from, to, m.Rows))
	}
	out := New(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// EqualApprox reports whether m and n have the same shape and all entries
// within tol of each other.
func (m *Matrix) EqualApprox(n *Matrix, tol float64) bool {
	if !m.SameShape(n) {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders m for debugging; large matrices are abbreviated.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	const maxShown = 8
	for i, v := range m.Data {
		if i >= maxShown {
			fmt.Fprintf(&b, " …(%d more)", len(m.Data)-maxShown)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteByte(']')
	return b.String()
}
