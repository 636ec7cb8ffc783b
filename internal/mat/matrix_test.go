package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAt(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if got := m.Data[5]; got != 7 {
		t.Fatalf("row-major layout broken: Data[5] = %v", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Fatalf("empty FromRows gave %dx%d", empty.Rows, empty.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddInPlace with mismatched shapes did not panic")
		}
	}()
	New(2, 2).AddInPlace(New(2, 3))
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if got := a.MatMul(b); !got.EqualApprox(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(4, 4, 0, 1, rng)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if got := a.MatMul(id); !got.EqualApprox(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if got := id.MatMul(a); !got.EqualApprox(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	New(2, 3).MatMul(New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", at)
	}
	if !a.T().T().EqualApprox(a, 0) {
		t.Fatal("double transpose is not identity")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed uint8) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n, m, k := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := RandNormal(n, m, 0, 1, rng)
		b := RandNormal(m, k, 0, 1, rng)
		left := a.MatMul(b).T()
		right := b.T().MatMul(a.T())
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndInPlace(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, -2, 3})
	a.ScaleInPlace(-1)
	if !a.EqualApprox(FromSlice(1, 3, []float64{-1, 2, -3}), 0) {
		t.Fatalf("ScaleInPlace = %v", a)
	}
	a.AddScaledInPlace(2, FromSlice(1, 3, []float64{1, 1, 1}))
	if !a.EqualApprox(FromSlice(1, 3, []float64{1, 4, -1}), 0) {
		t.Fatalf("AddScaledInPlace = %v", a)
	}
}

func TestSumMeanNorms(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, -4})
	if a.Sum() != 2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != 0.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
	empty := New(0, 0)
	if empty.Mean() != 0 || empty.MaxAbs() != 0 {
		t.Fatal("empty-matrix stats should be zero")
	}
}

func TestSliceRowsCols(t *testing.T) {
	a := FromSlice(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	r := a.SliceRows(1, 3)
	if !r.EqualApprox(FromSlice(2, 3, []float64{4, 5, 6, 7, 8, 9}), 0) {
		t.Fatalf("SliceRows = %v", r)
	}
	// Slices are copies, not views.
	r.Set(0, 0, 99)
	if a.At(1, 0) == 99 {
		t.Fatal("SliceRows aliases the source")
	}
}

// softmaxRows applies SoftmaxInto to each row of m.
func softmaxRows(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		SoftmaxInto(out.Row(i), m.Row(i))
	}
	return out
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	s := softmaxRows(a)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Large equal logits → uniform (stability check).
	if math.Abs(s.At(1, 0)-1.0/3) > 1e-12 {
		t.Fatalf("unstable softmax: %v", s.Row(1))
	}
	// Monotone within row.
	if !(s.At(0, 0) < s.At(0, 1) && s.At(0, 1) < s.At(0, 2)) {
		t.Fatal("softmax not monotone in logits")
	}
}

// Property: softmax rows always sum to 1 and stay in [0,1].
func TestSoftmaxRowsProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		data := make([]float64, 6)
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			data[i] = math.Mod(v, 50)
		}
		s := softmaxRows(FromSlice(2, 3, data))
		for i := 0; i < 2; i++ {
			var sum float64
			for j := 0; j < 3; j++ {
				v := s.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	c := a.Clone()
	c.Set(0, 0, 42)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases source data")
	}
}

func TestXavierBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := XavierUniform(20, 30, rng)
	bound := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data {
		if math.Abs(v) > bound {
			t.Fatalf("Xavier entry %v outside ±%v", v, bound)
		}
	}
}

func TestString(t *testing.T) {
	m := FromSlice(3, 4, make([]float64, 12))
	s := m.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
