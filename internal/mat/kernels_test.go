package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMatMul is the textbook triple loop, the reference the optimized
// kernels are checked against.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Odd sizes exercise the unrolled kernel's remainder loop.
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 13, 3}, {4, 1, 9}, {16, 17, 16}, {3, 8, 1}} {
		r, k, c := dims[0], dims[1], dims[2]
		a := RandNormal(r, k, 0, 1, rng)
		b := RandNormal(k, c, 0, 1, rng)
		got := a.MatMul(b)
		want := naiveMatMul(a, b)
		if !got.EqualApprox(want, 1e-12) {
			t.Fatalf("MatMul %dx%d·%dx%d diverges from naive", r, k, k, c)
		}
	}
}

func TestMatMulDenseNoZeroSkip(t *testing.T) {
	// Zeros in the left operand must still produce exact results (the old
	// kernel special-cased them; the new one must not need to).
	a := FromRows([][]float64{{0, 2, 0}, {1, 0, 3}})
	b := FromRows([][]float64{{5, 6}, {7, 8}, {9, 10}})
	got := a.MatMul(b)
	want := naiveMatMul(a, b)
	if !got.EqualApprox(want, 0) {
		t.Fatalf("MatMul with zero entries: got %v want %v", got, want)
	}
}

func TestAddMatMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range [][3]int{{2, 3, 4}, {5, 1, 7}, {1, 6, 1}, {4, 9, 5}} {
		r, c, k := dims[0], dims[1], dims[2]
		a := RandNormal(r, c, 0, 1, rng)   // dOut
		b := RandNormal(k, c, 0, 1, rng)   // B (the kernel consumes Bᵀ implicitly)
		out := RandNormal(r, k, 0, 1, rng) // pre-filled: kernel must accumulate
		want := out.Clone().AddInPlace(naiveMatMul(a, b.T()))
		AddMatMulABT(out, a, b)
		if !out.EqualApprox(want, 1e-12) {
			t.Fatalf("AddMatMulABT %v diverges from naive a·bᵀ", dims)
		}
	}
}

func TestAddMatMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][3]int{{2, 3, 4}, {5, 1, 7}, {1, 6, 1}, {4, 9, 5}} {
		r, k, c := dims[0], dims[1], dims[2]
		a := RandNormal(r, k, 0, 1, rng)   // A
		b := RandNormal(r, c, 0, 1, rng)   // dOut
		out := RandNormal(k, c, 0, 1, rng) // pre-filled: kernel must accumulate
		want := out.Clone().AddInPlace(naiveMatMul(a.T(), b))
		AddMatMulATB(out, a, b)
		if !out.EqualApprox(want, 1e-12) {
			t.Fatalf("AddMatMulATB %v diverges from naive aᵀ·b", dims)
		}
	}
}

func TestMatMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto with wrong output shape did not panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 4))
}

func TestPoolRecyclesBySize(t *testing.T) {
	var p Pool
	m := p.Get(2, 3)
	for i := range m.Data {
		m.Data[i] = math.Pi
	}
	p.Put(m)
	// Same element count, different shape: must reuse the backing slice.
	r := p.Get(3, 2)
	if &r.Data[0] != &m.Data[0] {
		t.Fatal("pool did not recycle same-size buffer")
	}
	if r.Rows != 3 || r.Cols != 2 {
		t.Fatalf("recycled matrix has shape %dx%d, want 3x2", r.Rows, r.Cols)
	}
	z := p.GetZeroed(3, 2)
	for _, v := range z.Data {
		if v != 0 {
			t.Fatal("GetZeroed returned dirty buffer")
		}
	}
	// Different size: fresh allocation, not a resliced recycle.
	q := p.Get(4, 4)
	if len(q.Data) != 16 {
		t.Fatalf("Get(4,4) len %d", len(q.Data))
	}
	p.Put(nil) // must not panic
}
