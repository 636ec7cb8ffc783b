package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAddScaleVec(t *testing.T) {
	s := ScaleVec(2, []float64{1, -1})
	if s[0] != 2 || s[1] != -2 {
		t.Fatalf("ScaleVec = %v", s)
	}
}

func TestNormSumVec(t *testing.T) {
	if got := NormVec([]float64{3, 4}); got != 5 {
		t.Fatalf("NormVec = %v", got)
	}
	if got := SumVec([]float64{1, 2, 3}); got != 6 {
		t.Fatalf("SumVec = %v", got)
	}
}

func TestSoftmaxVec(t *testing.T) {
	softmax := func(a []float64) []float64 {
		out := make([]float64, len(a))
		SoftmaxInto(out, a)
		return out
	}
	s := softmax([]float64{1000, 1000})
	if math.Abs(s[0]-0.5) > 1e-12 {
		t.Fatalf("unstable softmax %v", s)
	}
	if len(softmax(nil)) != 0 {
		t.Fatal("empty softmax should be empty")
	}
	f := func(a, b, c float64) bool {
		in := []float64{math.Mod(a, 30), math.Mod(b, 30), math.Mod(c, 30)}
		for i, v := range in {
			if math.IsNaN(v) {
				in[i] = 0
			}
		}
		out := softmax(in)
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	n := Normalize([]float64{1, 3})
	if math.Abs(n[0]-0.25) > 1e-12 || math.Abs(n[1]-0.75) > 1e-12 {
		t.Fatalf("Normalize = %v", n)
	}
	z := Normalize([]float64{0, 0})
	if math.Abs(z[0]-0.5) > 1e-12 {
		t.Fatalf("zero-sum Normalize = %v (want uniform)", z)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{0.5, 0.5}); math.Abs(got-math.Ln2) > 1e-12 {
		t.Fatalf("Entropy(uniform2) = %v", got)
	}
	if got := Entropy([]float64{1, 0}); got != 0 {
		t.Fatalf("Entropy(point mass) = %v", got)
	}
	uni := []float64{0.25, 0.25, 0.25, 0.25}
	peaked := []float64{0.7, 0.1, 0.1, 0.1}
	if Entropy(uni) <= Entropy(peaked) {
		t.Fatal("uniform should have the larger entropy")
	}
}

func TestSigmoidStable(t *testing.T) {
	if got := Sigmoid(1000); got != 1 {
		t.Fatalf("Sigmoid(1000) = %v", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Fatalf("Sigmoid(-1000) = %v", got)
	}
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	// Symmetry: σ(x) + σ(−x) = 1.
	for _, x := range []float64{0.1, 1, 5, 20} {
		if math.Abs(Sigmoid(x)+Sigmoid(-x)-1) > 1e-12 {
			t.Fatalf("sigmoid symmetry broken at %v", x)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}
