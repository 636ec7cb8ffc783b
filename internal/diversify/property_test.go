package diversify

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

// hostileList is a quick generator producing adversarial candidate lists:
// non-finite relevance, ragged/missing coverage and feature rows, zero-length
// lists. Every diversifier must stay total and deterministic on these.
type hostileList struct {
	l      List
	lambda float64
}

func (hostileList) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(14)
	h := hostileList{lambda: pickLambda(r)}
	h.l.Rel = make([]float64, n)
	for i := range h.l.Rel {
		h.l.Rel[i] = hostileFloat(r)
	}
	m := r.Intn(6)
	if r.Intn(4) > 0 { // sometimes no coverage at all
		rows := n
		if r.Intn(3) == 0 && n > 0 {
			rows = r.Intn(n) // fewer rows than items
		}
		h.l.Cover = make([][]float64, rows)
		for i := range h.l.Cover {
			w := m
			if r.Intn(3) == 0 {
				w = r.Intn(m + 2) // ragged rows
			}
			h.l.Cover[i] = make([]float64, w)
			for j := range h.l.Cover[i] {
				h.l.Cover[i][j] = hostileFloat(r)
			}
		}
	}
	if r.Intn(2) == 0 {
		h.l.Feats = make([][]float64, n)
		for i := range h.l.Feats {
			h.l.Feats[i] = make([]float64, r.Intn(5))
			for j := range h.l.Feats[i] {
				h.l.Feats[i][j] = hostileFloat(r)
			}
		}
	}
	return reflect.ValueOf(h)
}

func hostileFloat(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 1e308
	default:
		return r.NormFloat64()
	}
}

func pickLambda(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return math.NaN()
	case 1:
		return -3
	case 2:
		return 7
	default:
		return r.Float64()
	}
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// allDiversifiers returns one fresh instance per registered name, plus
// non-default parameterizations that exercise the k>n and tiny-window paths.
func allDiversifiers(t *testing.T) map[string]Diversifier {
	t.Helper()
	out := make(map[string]Diversifier)
	for _, name := range Names() {
		d, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out[name] = d
	}
	out["dpp-k3"] = &dpp{QualityWeight: 1, FeatureMix: 0.3, K: 3}
	out["bswap-k300"] = &bswap{K: 300}
	out["window-w1"] = &slidingWindow{W: 1}
	return out
}

// TestRerankPermutationProperty: every diversifier returns a permutation of
// [0, n) for any input, however hostile.
func TestRerankPermutationProperty(t *testing.T) {
	for name, d := range allDiversifiers(t) {
		f := func(h hostileList) bool {
			return isPermutation(d.Rerank(h.l, h.lambda), h.l.size())
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRerankDeterministic: re-running the same input yields the identical
// permutation — diversifiers carry no hidden state or randomness.
func TestRerankDeterministic(t *testing.T) {
	for name, d := range allDiversifiers(t) {
		f := func(h hostileList) bool {
			a := d.Rerank(h.l, h.lambda)
			b := d.Rerank(h.l, h.lambda)
			return reflect.DeepEqual(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLambdaZeroIsRelevanceOrder: λ=0 must reproduce the pure relevance
// ranking (stable descending, matching rerank.OrderByScores ties).
func TestLambdaZeroIsRelevanceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, d := range allDiversifiers(t) {
		for trial := 0; trial < 60; trial++ {
			l := randomFiniteList(rng, rng.Intn(16), 4, 3)
			want := relevanceOrder(sanitizedRel(l))
			got := d.Rerank(l, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: λ=0 order %v, want relevance order %v (rel %v)",
					name, trial, got, want, l.Rel)
			}
		}
	}
}

// randomFiniteList builds a well-formed list: finite scores, rectangular
// [0,1] coverage, unit-scale features.
func randomFiniteList(rng *rand.Rand, n, m, f int) List {
	l := List{Rel: make([]float64, n), Cover: make([][]float64, n), Feats: make([][]float64, n)}
	for i := 0; i < n; i++ {
		l.Rel[i] = rng.NormFloat64()
		l.Cover[i] = make([]float64, m)
		for j := range l.Cover[i] {
			if rng.Intn(2) == 0 {
				l.Cover[i][j] = rng.Float64()
			}
		}
		l.Feats[i] = make([]float64, f)
		for j := range l.Feats[i] {
			l.Feats[i][j] = rng.NormFloat64()
		}
	}
	return l
}

// TestLambdaTradesILDUp: averaged over a fixed corpus, pushing λ up never
// trades top-k intra-list diversity down by more than noise, and the λ=1
// endpoint is strictly more diverse than λ=0. Diversity is measured as ILD
// over topic-coverage rows — the space every objective in the suite
// diversifies — with features generated as noisy copies of coverage so the
// blended-distance heuristics (BSwap, DPP) optimize a correlated signal.
// Per-list monotonicity is not guaranteed for the swap/kernel heuristics;
// the corpus mean over the canonical four is the contract. The non-default
// parameterizations are excluded deliberately: BSwap with K ≥ n is a
// documented no-op and a W=1 window forgets too fast to hold a mean trend.
func TestLambdaTradesILDUp(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const k, corpusN = 10, 30
	corpus := make([]List, corpusN)
	for c := range corpus {
		l := randomFiniteList(rng, 20, 5, 5)
		for i := range l.Cover {
			// Unit-norm coverage rows (entries stay in [0,1]) make cosine
			// distance — the space BSwap/DPP diversify — monotonically
			// equivalent to the Euclidean distance ILD measures:
			// ‖a−b‖² = 2−2·cos(a,b) on the unit sphere.
			var norm float64
			for _, v := range l.Cover[i] {
				norm += v * v
			}
			norm = math.Sqrt(norm)
			if norm == 0 {
				l.Cover[i][rng.Intn(len(l.Cover[i]))] = 1
				norm = 1
			}
			for j := range l.Cover[i] {
				l.Cover[i][j] /= norm
			}
		}
		// Relevance follows alignment with one "popular topic" profile per
		// list, so the λ=0 head is topically homogeneous (low ILD) and any
		// diversification has headroom to raise it. Uncorrelated relevance
		// would make the λ=0 slate a coverage-random — hence already
		// near-maximally diverse — selection, leaving the trend unmeasurable.
		popular := l.Cover[rng.Intn(len(l.Cover))]
		for i := range l.Rel {
			var dot float64
			for j := range popular {
				dot += popular[j] * l.Cover[i][j]
			}
			l.Rel[i] = dot + 0.05*rng.NormFloat64()
		}
		for i := range l.Feats {
			for j := range l.Feats[i] {
				l.Feats[i][j] = l.Cover[i][j] + 0.05*rng.NormFloat64()
			}
		}
		corpus[c] = l
	}
	lambdas := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, name := range Names() {
		d, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		means := make([]float64, len(lambdas))
		for li, lambda := range lambdas {
			var sum float64
			for _, l := range corpus {
				order := d.Rerank(l, lambda)
				cover := make([][]float64, 0, k)
				for _, i := range order[:min(k, len(order))] {
					cover = append(cover, l.Cover[i])
				}
				sum += metrics.ILDAtK(cover, k)
			}
			means[li] = sum / corpusN
		}
		for li := 1; li < len(means); li++ {
			if means[li] < means[li-1]-1e-3 {
				t.Errorf("%s: mean ILD@%d dropped from %.5f (λ=%.2f) to %.5f (λ=%.2f): %v",
					name, k, means[li-1], lambdas[li-1], means[li], lambdas[li], means)
			}
		}
		if !(means[len(means)-1] > means[0]) {
			t.Errorf("%s: λ=1 mean ILD %.5f not above λ=0 %.5f", name, means[len(means)-1], means[0])
		}
	}
}

// TestNormalizeRelevance pins the scale contract: finite input maps into
// [0,1] order-preservingly, degenerate input maps to 0.5.
func TestNormalizeRelevance(t *testing.T) {
	out := NormalizeRelevance([]float64{2, 4, 3})
	want := []float64{0, 1, 0.5}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("NormalizeRelevance = %v, want %v", out, want)
	}
	for _, degenerate := range [][]float64{{7, 7, 7}, {math.NaN(), math.Inf(1)}, {}} {
		out := NormalizeRelevance(degenerate)
		for _, v := range out {
			if v != 0.5 {
				t.Fatalf("NormalizeRelevance(%v) = %v, want all 0.5", degenerate, out)
			}
		}
	}
}
