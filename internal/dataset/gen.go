package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/topics"
)

// Generate builds a complete dataset from a config. Generation is
// deterministic for a given config (including seed).
func Generate(cfg Config) (*Dataset, error) {
	d := &Dataset{Name: cfg.Name, Cfg: cfg}
	genItems(d)
	genUsers(d)
	genHistories(d)
	genRankerTrain(d)
	d.RerankPools = genPools(d, cfg.RerankRequests, rngFor(cfg.Seed, "pools-rerank"))
	d.TestPools = genPools(d, cfg.TestRequests, rngFor(cfg.Seed, "pools-test"))
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("dataset: generated universe invalid: %w", err)
	}
	return d, nil
}

// MustGenerate is Generate, panicking on error. Generation errors indicate
// an inconsistent Config, which is a programming mistake in callers.
func MustGenerate(cfg Config) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

func genItems(d *Dataset) {
	cfg := d.Cfg
	rng := rngFor(cfg.Seed, "items")
	// Topic anchors in latent space tie an item's latent vector to its
	// dominant topic, so relevance and topical interest correlate the way
	// they do in real catalogues.
	anchors := make([][]float64, cfg.Topics)
	for j := range anchors {
		a := make([]float64, cfg.LatentDim)
		for dmn := range a {
			a[dmn] = rng.NormFloat64()
		}
		anchors[j] = a
	}
	covers := genCoverage(cfg, rng)
	d.Items = make([]*Item, cfg.NumItems)
	for v := 0; v < cfg.NumItems; v++ {
		cover := covers[v]
		latent := make([]float64, cfg.LatentDim)
		for j, t := range cover {
			for dmn := range latent {
				latent[dmn] += t * anchors[j][dmn]
			}
		}
		for dmn := range latent {
			latent[dmn] = latent[dmn]*0.6 + 0.4*rng.NormFloat64()
		}
		normalize(latent)
		feats := make([]float64, cfg.ItemDim)
		for dmn := range feats {
			base := 0.0
			if dmn < len(latent) {
				base = latent[dmn]
			}
			feats[dmn] = base + rng.NormFloat64()*cfg.FeatureNoise
		}
		it := &Item{ID: v, Features: feats, Cover: cover, latent: latent}
		if cfg.WithBids {
			// Log-normal bids concentrated around 1 with a heavy tail,
			// roughly how app-install bids distribute.
			it.Bid = math.Exp(rng.NormFloat64() * 0.5) // median 1
		}
		d.Items[v] = it
	}
}

// genCoverage produces per-item topic coverage according to the config's
// coverage kind.
func genCoverage(cfg Config, rng *rand.Rand) [][]float64 {
	covers := make([][]float64, cfg.NumItems)
	switch cfg.CoverageKind {
	case coverOneHot:
		for v := range covers {
			c := make([]float64, cfg.Topics)
			c[rng.Intn(cfg.Topics)] = 1
			covers[v] = c
		}
	case coverMultiHot:
		maxG := cfg.MaxGenres
		if maxG < 1 {
			maxG = 1
		}
		for v := range covers {
			c := make([]float64, cfg.Topics)
			k := 1 + rng.Intn(maxG)
			for g := 0; g < k; g++ {
				c[rng.Intn(cfg.Topics)] = 1
			}
			covers[v] = mat.Normalize(c)
		}
	case coverGMM:
		// Raw categories are points in a 2·Topics-dimensional embedding
		// space drawn around per-topic centers; a GMM recovers the topic
		// structure and its responsibilities become probabilistic coverage
		// — the Taobao pipeline (9,439 categories → 5 GMM topics).
		dim := 2 * cfg.Topics
		centers := make([][]float64, cfg.Topics)
		for j := range centers {
			c := make([]float64, dim)
			for dmn := range c {
				c[dmn] = rng.NormFloat64() * 2
			}
			centers[j] = c
		}
		cats := make([][]float64, cfg.Categories)
		for i := range cats {
			base := centers[rng.Intn(cfg.Topics)]
			p := make([]float64, dim)
			for dmn := range p {
				p[dmn] = base[dmn] + rng.NormFloat64()*0.6
			}
			cats[i] = p
		}
		gmm := topics.FitGMM(cats, cfg.Topics, 25, rng)
		catCover := make([][]float64, len(cats))
		for i, p := range cats {
			catCover[i] = gmm.Responsibilities(p)
		}
		for v := range covers {
			covers[v] = catCover[rng.Intn(len(cats))]
		}
	default:
		panic(fmt.Sprintf("dataset: unknown coverage kind %d", cfg.CoverageKind))
	}
	return covers
}

func genUsers(d *Dataset) {
	cfg := d.Cfg
	rng := rngFor(cfg.Seed, "users")
	d.Users = make([]*User, cfg.NumUsers)
	for u := 0; u < cfg.NumUsers; u++ {
		pref := make([]float64, cfg.Topics)
		focused := rng.Float64() < cfg.FocusedFrac
		if focused {
			// Mass on a few topics with a little leakage elsewhere.
			k := cfg.FocusedTopics
			if k < 1 {
				k = 1
			}
			for t := 0; t < k; t++ {
				pref[rng.Intn(cfg.Topics)] += 1 + rng.Float64()
			}
			for j := range pref {
				pref[j] += 0.02
			}
		} else {
			// Diverse user: smooth Dirichlet-like preference.
			for j := range pref {
				pref[j] = 0.4 + rng.Float64()
			}
		}
		pref = mat.Normalize(pref)
		appetite := 0.25 + 0.3*rng.Float64()
		if !focused {
			appetite = 0.6 + 0.4*rng.Float64()
		}
		latent := make([]float64, cfg.LatentDim)
		for dmn := range latent {
			latent[dmn] = rng.NormFloat64()
		}
		normalize(latent)
		// Observable user features carry the latent vector and the raw
		// topic preference (both noised) — so every model can in principle
		// learn the topical-relevance component, while the diversity
		// appetite remains recoverable only from the behavior history.
		feats := make([]float64, cfg.UserDim)
		for dmn := range feats {
			base := 0.0
			switch {
			case dmn < len(latent):
				base = latent[dmn]
			case dmn-len(latent) < len(pref):
				base = pref[dmn-len(latent)] * float64(cfg.Topics) / 2
			}
			feats[dmn] = base + rng.NormFloat64()*cfg.FeatureNoise
		}
		// Tempered behavior distribution: high appetite flattens browsing
		// across topics, low appetite sharpens it. This is the signal the
		// history carries about the user's diversity preference.
		bd := make([]float64, cfg.Topics)
		exp := 1 / (0.4 + appetite)
		for j, p := range pref {
			bd[j] = math.Pow(p+1e-6, exp)
		}
		bd = mat.Normalize(bd)
		d.Users[u] = &User{
			ID: u, Features: feats, Pref: pref, BehaviorDist: bd,
			DivAppetite: appetite, latent: latent,
		}
	}
}

// genHistories samples each user's behavior history: items drawn with
// probability proportional to relevance × topical preference, which is how
// positively-interacted histories concentrate on the user's true topics.
func genHistories(d *Dataset) {
	cfg := d.Cfg
	rng := rngFor(cfg.Seed, "history")
	for _, u := range d.Users {
		weights := make([]float64, len(d.Items))
		for v := range d.Items {
			rel := d.Relevance(u.ID, v)
			topical := mat.Dot(u.BehaviorDist, d.Items[v].Cover)
			weights[v] = rel * (0.1 + topical)
		}
		cum := cumulative(weights)
		u.History = make([]int, cfg.HistoryLen)
		for i := range u.History {
			u.History[i] = sampleCum(cum, rng)
		}
	}
}

func genRankerTrain(d *Dataset) {
	cfg := d.Cfg
	rng := rngFor(cfg.Seed, "rankertrain")
	for _, u := range d.Users {
		for i := 0; i < cfg.RankerTrainPerUser; i++ {
			v := rng.Intn(len(d.Items))
			label := 0.0
			if rng.Float64() < d.Relevance(u.ID, v) {
				label = 1
			}
			d.RankerTrain = append(d.RankerTrain, Interaction{User: u.ID, Item: v, Label: label})
			for n := 0; n < cfg.NegativesPerPositive; n++ {
				nv := rng.Intn(len(d.Items))
				nl := 0.0
				if rng.Float64() < d.Relevance(u.ID, nv)*0.5 {
					nl = 1
				}
				d.RankerTrain = append(d.RankerTrain, Interaction{User: u.ID, Item: nv, Label: nl})
			}
		}
	}
}

// genPools retrieves candidate sets per request: a recall-stage mixture of
// topically matched items and random exploration, as the multi-stage
// pipeline of Section I would produce.
func genPools(d *Dataset, n int, rng *rand.Rand) []Pool {
	cfg := d.Cfg
	poolSize := cfg.PoolSize
	if poolSize > len(d.Items) {
		// A heavily scaled-down universe can have fewer items than the
		// configured pool; retrieval then returns the whole catalogue.
		poolSize = len(d.Items)
	}
	pools := make([]Pool, n)
	for i := 0; i < n; i++ {
		u := rng.Intn(len(d.Users))
		usr := d.Users[u]
		seen := make(map[int]bool, poolSize)
		cands := make([]int, 0, poolSize)
		weights := make([]float64, len(d.Items))
		for v := range d.Items {
			// Squared topical match makes recall sharply redundant — the
			// near-duplicate candidate sets the paper's intro motivates.
			t := mat.Dot(usr.Pref, d.Items[v].Cover)
			weights[v] = 0.01 + t*t
		}
		cum := cumulative(weights)
		for len(cands) < poolSize {
			var v int
			if rng.Float64() < 0.6 {
				v = sampleCum(cum, rng)
			} else {
				v = rng.Intn(len(d.Items))
			}
			if !seen[v] {
				seen[v] = true
				cands = append(cands, v)
			}
		}
		pools[i] = Pool{User: u, Candidates: cands}
	}
	return pools
}

func normalize(v []float64) {
	n := mat.NormVec(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	var s float64
	for i, x := range w {
		s += x
		cum[i] = s
	}
	return cum
}

func sampleCum(cum []float64, rng *rand.Rand) int {
	total := cum[len(cum)-1]
	r := rng.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
