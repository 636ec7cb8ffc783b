package rerank

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/topics"
)

// TopicSeqCap is the maximum per-topic behavior-sequence length stored on an
// instance. Models with a smaller D (the paper's default is 5) take the most
// recent D entries; 10 is the largest D studied (Table V).
const TopicSeqCap = 10

// Instance is one re-ranking request with all model-visible information:
// the initial list R with its scores, the user's features and per-topic
// behavior sequences, per-item features and topic coverage, click labels
// when the instance belongs to the training split, and bids when the
// dataset carries revenue.
type Instance struct {
	User       int
	UserFeat   []float64
	Items      []int       // initial list R, best-first
	InitScores []float64   // aligned with Items
	Labels     []float64   // click labels on R; nil for test instances
	Cover      [][]float64 // L×m topic coverage of the listed items
	Bids       []float64   // per-item bid, nil unless the dataset has bids
	History    []int       // raw behavior history, oldest first
	TopicSeqs  [][]int     // m per-topic sequences (item IDs), each ≤ TopicSeqCap
	M          int         // number of topics

	// ItemFeat resolves any item ID (listed or historical) to its feature
	// vector x_v.
	ItemFeat func(item int) []float64
	// CoverOf resolves any item ID to its topic coverage τ_v (the listed
	// items' coverage is also cached in Cover).
	CoverOf func(item int) []float64
}

// NewInstance assembles an instance from a prepared request. rng drives the
// topic-membership sampling for fractional coverage (Section III-C); pass
// a seeded source for determinism.
func NewInstance(d *dataset.Dataset, req dataset.Request, rng *rand.Rand) *Instance {
	l := len(req.Items)
	cover := make([][]float64, l)
	for i, v := range req.Items {
		cover[i] = d.Cover(v)
	}
	var bids []float64
	if d.Cfg.WithBids {
		bids = make([]float64, l)
		for i, v := range req.Items {
			bids[i] = d.Bid(v)
		}
	}
	var labels []float64
	if req.Clicks != nil {
		labels = make([]float64, l)
		for i, c := range req.Clicks {
			if c {
				labels[i] = 1
			}
		}
	}
	hist := d.Users[req.User].History
	seqs := topics.SplitByTopic(hist, d.Cover, d.M(), TopicSeqCap, rng)
	return &Instance{
		User:       req.User,
		UserFeat:   d.UserFeatures(req.User),
		Items:      req.Items,
		InitScores: req.InitScores,
		Labels:     labels,
		Cover:      cover,
		Bids:       bids,
		History:    hist,
		TopicSeqs:  seqs,
		M:          d.M(),
		ItemFeat:   d.ItemFeatures,
		CoverOf:    d.Cover,
	}
}

// L returns the list length.
func (in *Instance) L() int { return len(in.Items) }

// FeatureDim returns the per-position feature width of ListFeatures.
func (in *Instance) FeatureDim() int {
	return len(in.UserFeat) + len(in.ItemFeat(in.Items[0])) + in.M + 1
}

// ListFeatures builds the listwise input matrix: row i is
// e_{R(i)} = [x_u, x_{R(i)}, τ_{R(i)}, initScore_i], the paper's per-item
// embedding (Section III-B) extended with the initial score, which every
// neural baseline also consumes.
func (in *Instance) ListFeatures() *mat.Matrix {
	l := in.L()
	out := mat.New(l, in.FeatureDim())
	for i := 0; i < l; i++ {
		row := out.Row(i)
		off := copy(row, in.UserFeat)
		off += copy(row[off:], in.ItemFeat(in.Items[i]))
		off += copy(row[off:], in.Cover[i])
		row[off] = in.InitScores[i]
	}
	return out
}

// RecentTopicSeq is the most recent d item IDs of topic j's behavior
// sequence — the part of the history the model reads.
func (in *Instance) RecentTopicSeq(j, d int) []int {
	seq := in.TopicSeqs[j]
	if len(seq) > d {
		seq = seq[len(seq)-d:]
	}
	return seq
}

// TopicSeqFeatures builds the per-topic behavior sequence input for topic j
// truncated to the last d entries: row t is [x_u, x_{T_j(t)}] as in Section
// III-C. It returns a 0-row matrix for an empty sequence.
func (in *Instance) TopicSeqFeatures(j, d int) *mat.Matrix {
	seq := in.RecentTopicSeq(j, d)
	qu := len(in.UserFeat)
	var qv int
	if len(in.Items) > 0 {
		qv = len(in.ItemFeat(in.Items[0]))
	}
	out := mat.New(len(seq), qu+qv)
	for t, item := range seq {
		row := out.Row(t)
		off := copy(row, in.UserFeat)
		copy(row[off:], in.ItemFeat(item))
	}
	return out
}

// MarginalDiversity returns d_R(R(i)) for every listed item (Eq. 5).
func (in *Instance) MarginalDiversity() [][]float64 {
	return topics.MarginalDiversity(in.Cover, in.M)
}

// HistoryPreference returns the empirical topic-preference distribution of
// the user's history — the non-learned θ used by heuristic baselines such
// as adpMMR.
func (in *Instance) HistoryPreference() []float64 {
	return topics.PreferenceFromHistory(in.History, in.CoverOf, in.M)
}
