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

// reluBranchy and reluGradBranchy are ReLU's loops as they were written
// with a branch: the references ReLUInto and ReLUGradInto must match bit
// for bit.
func reluBranchy(dst, src []float64) {
	for i, x := range src {
		if x > 0 {
			dst[i] = x
		} else {
			dst[i] = 0
		}
	}
}

func reluGradBranchy(ga, g, x []float64) {
	for i, xi := range x {
		if xi > 0 {
			ga[i] += g[i]
		}
	}
}

// reluInputs is every class of float64 the mask must sort: both zeros,
// quiet and signalling NaNs of either sign and several payloads, both
// infinities, the extremes of the normal and subnormal ranges, and
// ordinary values.
func reluInputs() []float64 {
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	return []float64{
		0, math.Copysign(0, -1),
		math.NaN(), nan(0x7ff8000000000001), nan(0x7ff0000000000001), nan(0x7ff4000000000000), nan(0x7fffffffffffffff),
		nan(0xfff8000000000000), nan(0xfff0000000000001), nan(0xffffffffffffffff),
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		math.Nextafter(0x1p-1022, 0), -math.Nextafter(0x1p-1022, 0),
		1, -1, 0.5, -2.75, 1e300, -1e-300,
	}
}

// TestReLUMatchesBranch holds the mask-selecting ReLU to the branch on
// every input class, and its gradient to the branch's accumulation from a
// gradient buffer holding −0, +0, a NaN and ordinary values, so a −0 left
// where x ≤ 0 must survive.
func TestReLUMatchesBranch(t *testing.T) {
	in := reluInputs()
	got, want := make([]float64, len(in)), make([]float64, len(in))
	ReLUInto(got, in)
	reluBranchy(want, in)
	for i := range in {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("ReLU(%#x) = %#x, branch %#x", math.Float64bits(in[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	in2 := append([]float64(nil), in...)
	ReLUInto(in2, in2)
	if firstMismatch(in2, want) >= 0 {
		t.Error("ReLUInto in place differs from a separate dst")
	}
	for _, ga0 := range []float64{math.Copysign(0, -1), 0, math.NaN(), 3, -0.25} {
		for _, g0 := range []float64{math.Copysign(0, -1), 0, 1, -7, math.Inf(-1)} {
			ga, wantGA, g := make([]float64, len(in)), make([]float64, len(in)), make([]float64, len(in))
			for i := range in {
				ga[i], wantGA[i], g[i] = ga0, ga0, g0
			}
			ReLUGradInto(ga, g, in)
			reluGradBranchy(wantGA, g, in)
			for i := range in {
				if math.Float64bits(ga[i]) != math.Float64bits(wantGA[i]) {
					t.Errorf("ga %v g %v x %#x: %#x, branch %#x", ga0, g0, math.Float64bits(in[i]), math.Float64bits(ga[i]), math.Float64bits(wantGA[i]))
				}
			}
		}
	}
}
