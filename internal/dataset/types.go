// Package dataset generates the synthetic user/item universes that stand in
// for the paper's Taobao, MovieLens-20M and Huawei App Store datasets.
//
// The paper's public-dataset evaluation is itself semi-synthetic — clicks
// are produced by a DCM fitted to the logs — so what a faithful
// reproduction needs from the data is (a) a relevance signal recoverable
// from user/item features, (b) per-item topic coverage with the right
// geometry per dataset, and (c) heterogeneous, *hidden* per-user diversity
// preferences expressed through behavior histories. The generators here
// construct exactly those, seeded and deterministic.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
)

// Item is a recommendable item.
type Item struct {
	ID int
	// Features is the observable feature vector x_v (latent vector plus
	// noise), of dimension Config.ItemDim.
	Features []float64
	// Cover is the topic coverage τ_v ∈ [0,1]^m.
	Cover []float64
	// Bid is the per-click revenue b(v); zero unless the config enables
	// bids (App Store).
	Bid float64
	// latent is the ground-truth item vector used by the relevance model.
	latent []float64
}

// User is a platform user.
type User struct {
	ID int
	// Features is the observable feature vector x_u of dimension
	// Config.UserDim.
	Features []float64
	// History is the time-ordered behavior history (item IDs the user
	// positively interacted with), oldest first.
	History []int
	// Pref is the ground-truth topic preference distribution (sums to 1).
	// Models never see it directly; it shapes History and the DCM.
	Pref []float64
	// BehaviorDist is the tempered preference p_u ∝ Pref^(1/(0.4+appetite))
	// that actually drives the behavior history and the DCM diversity
	// weights. High-appetite users browse more broadly than their raw
	// preference; low-appetite users browse more narrowly. Because ρ̄ is a
	// function of this distribution, a model can in principle recover the
	// diversity preference from the history — the paper's core premise.
	BehaviorDist []float64
	// DivAppetite ∈ [0,1] scales how much diversity drives this user's
	// clicks; focused users have low appetite.
	DivAppetite float64
	// latent is the ground-truth user vector for the relevance model.
	latent []float64
}

// Interaction is a pointwise training example for the initial rankers.
type Interaction struct {
	User, Item int
	Label      float64 // 1 = positive (click/purchase), 0 = negative
}

// Pool is a re-ranking request before initial ranking: a user and the
// candidate items retrieved for them.
type Pool struct {
	User       int
	Candidates []int
}

// Request is a fully prepared re-ranking instance: the initial ranking list
// R (already ordered by the initial ranker), its scores, and — for training
// requests — the DCM-simulated clicks on R.
type Request struct {
	User       int
	Items      []int     // initial list R, best-first, length L
	InitScores []float64 // initial ranker scores aligned with Items
	Clicks     []bool    // click labels on R (training only; nil for test)
}

// Dataset is a complete generated universe with its experiment splits.
type Dataset struct {
	Name  string
	Cfg   Config
	Users []*User
	Items []*Item

	// RankerTrain holds pointwise interactions for initial-ranker training
	// (the paper's "initial ranker training set").
	RankerTrain []Interaction
	// RerankPools / TestPools are the candidate pools from which the
	// "re-ranking training set" and "test set" requests are built once an
	// initial ranker is available.
	RerankPools []Pool
	TestPools   []Pool
}

// M returns the number of topics.
func (d *Dataset) M() int { return d.Cfg.Topics }

// Cover returns item v's topic coverage; it is the function handed to the
// click model and the re-rankers.
func (d *Dataset) Cover(v int) []float64 { return d.Items[v].Cover }

// Relevance returns the ground-truth attraction relevance ᾱ(u, v) ∈ [0,1]:
// a logistic link over the latent affinity plus the topical match. This is
// the quantity the DCM environment uses; models must estimate it from
// features and clicks.
func (d *Dataset) Relevance(u, v int) float64 {
	usr, itm := d.Users[u], d.Items[v]
	aff := mat.Dot(usr.latent, itm.latent)
	topical := mat.Dot(usr.Pref, itm.Cover)
	return mat.Sigmoid(d.Cfg.RelAffinity*aff + d.Cfg.RelTopical*topical + d.Cfg.RelBias)
}

// DivWeight returns the user's ground-truth DCM diversity weights
// ρ̄(u) = appetite·p_u/max(p_u), where p_u is the tempered behavior
// distribution (see User.BehaviorDist): the shape users reveal through
// their histories, rescaled so its largest component equals the appetite.
// Since every
// coverage geometry in this package has Σ_j τ_v^j ≤ 1, the incremental
// coverage gain satisfies Σ_j ζ_j ≤ 1 and hence ρ̄ᵀζ ≤ appetite ≤ 1,
// keeping φ̄ a probability without clamping while letting the diversity
// term move clicks materially (the paper's ρ̄ is fitted from logs and is of
// comparable magnitude to relevance).
func (d *Dataset) DivWeight(u int) []float64 {
	usr := d.Users[u]
	src := usr.BehaviorDist
	if src == nil {
		src = usr.Pref
	}
	mx := 0.0
	for _, p := range src {
		if p > mx {
			mx = p
		}
	}
	if mx == 0 {
		return make([]float64, len(src))
	}
	return mat.ScaleVec(usr.DivAppetite/mx, src)
}

// UserFeatures and ItemFeatures expose observable features.
func (d *Dataset) UserFeatures(u int) []float64 { return d.Users[u].Features }

// ItemFeatures returns x_v.
func (d *Dataset) ItemFeatures(v int) []float64 { return d.Items[v].Features }

// Bid returns the bid price of item v.
func (d *Dataset) Bid(v int) float64 { return d.Items[v].Bid }

// validate performs internal consistency checks and returns the first
// problem found, or nil. Generators call it before returning.
func (d *Dataset) validate() error {
	m := d.Cfg.Topics
	for _, it := range d.Items {
		if len(it.Cover) != m {
			return fmt.Errorf("dataset %s: item %d has %d topics, want %d", d.Name, it.ID, len(it.Cover), m)
		}
		for j, t := range it.Cover {
			if t < 0 || t > 1 {
				return fmt.Errorf("dataset %s: item %d coverage[%d]=%f outside [0,1]", d.Name, it.ID, j, t)
			}
		}
	}
	for _, u := range d.Users {
		s := mat.SumVec(u.Pref)
		if s < 0.99 || s > 1.01 {
			return fmt.Errorf("dataset %s: user %d preference sums to %f", d.Name, u.ID, s)
		}
		for _, v := range u.History {
			if v < 0 || v >= len(d.Items) {
				return fmt.Errorf("dataset %s: user %d history references item %d", d.Name, u.ID, v)
			}
		}
	}
	return nil
}

// rngFor derives a namespaced deterministic RNG from the dataset seed so
// that independent generation stages don't perturb each other.
func rngFor(seed int64, stage string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range stage {
		h ^= int64(c)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}
