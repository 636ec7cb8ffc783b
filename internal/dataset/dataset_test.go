package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func tinyConfig(seed int64) Config {
	cfg := TaobaoLike(seed)
	cfg.NumUsers = 30
	cfg.NumItems = 80
	cfg.Categories = 20
	cfg.RerankRequests = 12
	cfg.TestRequests = 6
	return cfg
}

func TestGenerateValid(t *testing.T) {
	for _, cfg := range []Config{tinyConfig(1), MovieLensLike(1).Scaled(0.05), AppStoreLike(1).Scaled(0.05)} {
		d, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := d.validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(d.Users) == 0 || len(d.Items) == 0 || len(d.RankerTrain) == 0 {
			t.Fatalf("%s: empty universe", cfg.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(tinyConfig(7))
	b := MustGenerate(tinyConfig(7))
	for v := range a.Items {
		if !mat.RowVector(a.Items[v].Features).EqualApprox(mat.RowVector(b.Items[v].Features), 0) {
			t.Fatal("item features differ across identical configs")
		}
	}
	for u := range a.Users {
		for i, h := range a.Users[u].History {
			if b.Users[u].History[i] != h {
				t.Fatal("histories differ across identical configs")
			}
		}
	}
	if a.RerankPools[0].User != b.RerankPools[0].User {
		t.Fatal("pools differ across identical configs")
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := MustGenerate(tinyConfig(1))
	b := MustGenerate(tinyConfig(2))
	same := true
	for v := range a.Items {
		if !mat.RowVector(a.Items[v].Features).EqualApprox(mat.RowVector(b.Items[v].Features), 1e-12) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical items")
	}
}

func TestRelevanceBounds(t *testing.T) {
	d := MustGenerate(tinyConfig(3))
	f := func(ui, vi uint8) bool {
		u := int(ui) % len(d.Users)
		v := int(vi) % len(d.Items)
		r := d.Relevance(u, v)
		return r >= 0 && r <= 1 && !math.IsNaN(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivWeightInvariants(t *testing.T) {
	d := MustGenerate(tinyConfig(4))
	for u := range d.Users {
		rho := d.DivWeight(u)
		mx := 0.0
		for _, r := range rho {
			if r < 0 || r > 1 {
				t.Fatalf("user %d rho out of range: %v", u, rho)
			}
			if r > mx {
				mx = r
			}
		}
		// The max component equals the appetite by construction.
		if math.Abs(mx-d.Users[u].DivAppetite) > 1e-9 {
			t.Fatalf("user %d: max rho %v != appetite %v", u, mx, d.Users[u].DivAppetite)
		}
	}
}

func TestBehaviorDistTempering(t *testing.T) {
	d := MustGenerate(tinyConfig(5))
	for _, u := range d.Users {
		if math.Abs(mat.SumVec(u.BehaviorDist)-1) > 1e-9 {
			t.Fatalf("behavior dist not normalized: %v", u.BehaviorDist)
		}
		// Tempering flattens: behavior entropy ≥ preference entropy when
		// appetite is high (exponent < 1).
		if 1/(0.4+u.DivAppetite) < 1 {
			if mat.Entropy(u.BehaviorDist) < mat.Entropy(u.Pref)-1e-9 {
				t.Fatalf("high-appetite user %d: behavior entropy below preference entropy", u.ID)
			}
		}
	}
}

func TestHistoryReflectsPreference(t *testing.T) {
	// Aggregate check: users' histories must concentrate on their preferred
	// topics far above the uniform share.
	d := MustGenerate(tinyConfig(6))
	var onPref, total float64
	for _, u := range d.Users {
		best := 0
		for j, p := range u.Pref {
			if p > u.Pref[best] {
				best = j
			}
		}
		for _, v := range u.History {
			total++
			onPref += d.Items[v].Cover[best]
		}
	}
	share := onPref / total
	if share < 1.2/float64(d.M()) {
		t.Fatalf("history topical share %v barely above uniform %v", share, 1.0/float64(d.M()))
	}
}

func TestCoverageGeometries(t *testing.T) {
	oneHot := MustGenerate(AppStoreLike(1).Scaled(0.05))
	for _, it := range oneHot.Items {
		ones, zeros := 0, 0
		for _, c := range it.Cover {
			switch c {
			case 1:
				ones++
			case 0:
				zeros++
			}
		}
		if ones != 1 || zeros != len(it.Cover)-1 {
			t.Fatalf("one-hot coverage violated: %v", it.Cover)
		}
	}
	multi := MustGenerate(MovieLensLike(1).Scaled(0.05))
	for _, it := range multi.Items {
		if math.Abs(mat.SumVec(it.Cover)-1) > 1e-9 {
			t.Fatalf("multi-hot coverage not normalized: %v", it.Cover)
		}
	}
	gmm := MustGenerate(tinyConfig(8))
	for _, it := range gmm.Items {
		if math.Abs(mat.SumVec(it.Cover)-1) > 1e-6 {
			t.Fatalf("GMM coverage not a distribution: %v", it.Cover)
		}
	}
}

func TestBidsOnlyWithFlag(t *testing.T) {
	app := MustGenerate(AppStoreLike(1).Scaled(0.05))
	hasBid := false
	for _, it := range app.Items {
		if it.Bid > 0 {
			hasBid = true
		}
		if it.Bid < 0 {
			t.Fatal("negative bid")
		}
	}
	if !hasBid {
		t.Fatal("app store items carry no bids")
	}
	tb := MustGenerate(tinyConfig(9))
	for _, it := range tb.Items {
		if it.Bid != 0 {
			t.Fatal("taobao items should not carry bids")
		}
	}
}

func TestPoolsAreValid(t *testing.T) {
	d := MustGenerate(tinyConfig(10))
	for _, p := range append(append([]Pool{}, d.RerankPools...), d.TestPools...) {
		if p.User < 0 || p.User >= len(d.Users) {
			t.Fatalf("pool user %d out of range", p.User)
		}
		if len(p.Candidates) != d.Cfg.PoolSize {
			t.Fatalf("pool size %d, want %d", len(p.Candidates), d.Cfg.PoolSize)
		}
		seen := map[int]bool{}
		for _, v := range p.Candidates {
			if v < 0 || v >= len(d.Items) {
				t.Fatalf("candidate %d out of range", v)
			}
			if seen[v] {
				t.Fatal("duplicate candidate in pool")
			}
			seen[v] = true
		}
	}
}

func TestScaled(t *testing.T) {
	cfg := TaobaoLike(1)
	half := cfg.Scaled(0.5)
	if half.NumUsers != cfg.NumUsers/2 || half.RerankRequests != cfg.RerankRequests/2 {
		t.Fatalf("Scaled(0.5) users %d requests %d", half.NumUsers, half.RerankRequests)
	}
	tiny := cfg.Scaled(0.0001)
	if tiny.NumUsers < 8 || tiny.NumItems < 16 || tiny.RerankRequests < 8 {
		t.Fatalf("Scaled floor violated: %+v", tiny)
	}
	if tiny.ListLen != cfg.ListLen || tiny.Topics != cfg.Topics {
		t.Fatal("Scaled changed structural dims")
	}
}

func TestFocusedVsDiverseAppetite(t *testing.T) {
	d := MustGenerate(tinyConfig(11))
	var focusedApp, diverseApp []float64
	for _, u := range d.Users {
		h := mat.Entropy(u.Pref) / math.Log(float64(d.M()))
		if h < 0.5 {
			focusedApp = append(focusedApp, u.DivAppetite)
		} else {
			diverseApp = append(diverseApp, u.DivAppetite)
		}
	}
	if len(focusedApp) == 0 || len(diverseApp) == 0 {
		t.Skip("population too small to split")
	}
	mf := mat.SumVec(focusedApp) / float64(len(focusedApp))
	md := mat.SumVec(diverseApp) / float64(len(diverseApp))
	if md <= mf {
		t.Fatalf("diverse users should have larger appetite: focused %v diverse %v", mf, md)
	}
}
