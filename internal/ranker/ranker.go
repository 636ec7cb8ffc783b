// Package ranker implements the three initial rankers the paper feeds into
// the re-ranking stage (Section IV-B3): DIN (pointwise deep model with
// attention over the behavior history), SVMRank (pairwise linear) and
// LambdaMART (listwise gradient-boosted trees). The experiment harness
// trains one of these on the initial-ranker split and uses its scores to
// build the initial lists R.
package ranker

import (
	"math/rand"
	"sort"

	"repro/internal/dataset"
)

// Ranker scores a (user, item) pair; higher is better. Implementations are
// trained by Fit on the dataset's RankerTrain split. Score is safe for
// concurrent use once Fit has returned: the experiment harness ranks pools
// on every core at once.
type Ranker interface {
	Name() string
	Fit(d *dataset.Dataset) error
	Score(d *dataset.Dataset, user, item int) float64
}

// RankPool scores a candidate pool with r and returns the top-l items
// best-first along with their scores — the initial list R of the paper.
func RankPool(r Ranker, d *dataset.Dataset, p dataset.Pool, l int) (items []int, scores []float64) {
	type sv struct {
		item  int
		score float64
	}
	svs := make([]sv, len(p.Candidates))
	for i, v := range p.Candidates {
		svs[i] = sv{v, r.Score(d, p.User, v)}
	}
	sort.SliceStable(svs, func(a, b int) bool { return svs[a].score > svs[b].score })
	if l > len(svs) {
		l = len(svs)
	}
	items = make([]int, l)
	scores = make([]float64, l)
	for i := 0; i < l; i++ {
		items[i] = svs[i].item
		scores[i] = svs[i].score
	}
	return items, scores
}

// pairFeatures builds the shared hand-crafted feature vector for the linear
// and tree rankers: user features, item features, their element-wise
// product (truncated to the shorter), and the item's topic coverage.
func pairFeatures(d *dataset.Dataset, u, v int) []float64 {
	xu := d.UserFeatures(u)
	xv := d.ItemFeatures(v)
	n := len(xu)
	if len(xv) < n {
		n = len(xv)
	}
	f := make([]float64, 0, len(xu)+len(xv)+n+d.M())
	f = append(f, xu...)
	f = append(f, xv...)
	for i := 0; i < n; i++ {
		f = append(f, xu[i]*xv[i])
	}
	f = append(f, d.Cover(v)...)
	return f
}

// groupByUser splits interactions into per-user groups (the "queries" for
// pairwise/listwise training), with deterministic ordering.
func groupByUser(inter []dataset.Interaction) [][]dataset.Interaction {
	byU := make(map[int][]dataset.Interaction)
	var users []int
	for _, it := range inter {
		if _, ok := byU[it.User]; !ok {
			users = append(users, it.User)
		}
		byU[it.User] = append(byU[it.User], it)
	}
	sort.Ints(users)
	out := make([][]dataset.Interaction, 0, len(users))
	for _, u := range users {
		out = append(out, byU[u])
	}
	return out
}

// shuffled returns a shuffled copy of idx using rng.
func shuffled(n int, rng *rand.Rand) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
