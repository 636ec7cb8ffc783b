package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/rerank"
)

// maxListLength caps the number of candidates in one re-rank request.
// Re-ranking operates on the final stage's short list (the paper's lists are
// tens of items); a four-digit list is a malformed or hostile request, and
// the Bi-LSTM's O(L) step chain would blow the budget anyway.
const maxListLength = 1024

// Request is one re-rank request, transport-neutral: the HTTP frontend
// decodes it from JSON, the binary frontend from length-prefixed frames, and
// embedded callers build it directly. It must carry everything the model
// consumes (features, topic coverage, per-topic behavior sequences),
// mirroring rerank.Instance.
type Request struct {
	UserFeatures   []float64   `json:"user_features"`
	Items          []Item      `json:"items"`
	TopicSequences [][]SeqItem `json:"topic_sequences"`
	// Tenant names the resident scorer that should serve this request; empty
	// selects the default tenant (the engine's own provider), which keeps
	// every pre-multi-tenant client working unchanged.
	Tenant string `json:"tenant,omitempty"`
}

// Item is one candidate of the initial list.
type Item struct {
	ID        int       `json:"id"`
	Features  []float64 `json:"features"`
	Cover     []float64 `json:"cover"`
	InitScore float64   `json:"init_score"`
}

// SeqItem is one entry of a per-topic behavior sequence.
type SeqItem struct {
	Features []float64 `json:"features"`
}

// Response is one re-rank answer. Degraded marks the graceful-degradation
// contract: the engine could not produce model scores inside the request
// budget (deadline overrun, scoring error or recovered scoring panic) and
// fell back to the initial-ranker ordering instead of failing the request.
// DegradedReason says why ("deadline", "error", "panic").
type Response struct {
	Ranked         []int     `json:"ranked"`
	Scores         []float64 `json:"scores"` // aligned with Ranked
	Degraded       bool      `json:"degraded,omitempty"`
	DegradedReason string    `json:"degraded_reason,omitempty"`
	// ModelVersion labels the registry version that served the request
	// (empty in the single-model deployment shape); Canary marks requests
	// routed to a candidate under canary evaluation.
	ModelVersion string  `json:"model_version,omitempty"`
	Canary       bool    `json:"canary,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	// RequestID uniquely labels this served response; clients echo it in
	// feedback events so impressions and clicks join deterministically. Per
	// item inside a batch. Empty only on per-item validation errors (Error
	// set), which served no ranking.
	RequestID string `json:"request_id,omitempty"`
	// Error reports a per-item validation failure inside a batch (the
	// single-item path returns a typed error instead). An item with Error
	// set has no ranking.
	Error string `json:"error,omitempty"`
}

// ToInstance validates the wire request against the model geometry and
// assembles a rerank.Instance.
//
// Item ids must be distinct: the model reads an item's features by its id, so
// two list entries under one id would be scored as one item. Behavior-sequence
// items are addressed with synthetic ids that run down from just below the
// smallest list id, never starting above -1, so a list of non-negative ids
// numbers its sequence items -1, -2, … and no list id can stand for one.
//
// The instance is built from a fixed handful of allocations whatever the
// request's size: one int slab holds the list ids, the list positions sorted
// by id (ItemFeat and CoverOf binary-search them) and every synthetic id, and
// the topic sequences are cut from it; one float slab holds the initial scores
// and the zero cover unknown ids share; one row slab holds the list's cover,
// its features by position and every sequence item's features. The instance
// aliases the request's feature, cover and user vectors, nothing else.
func ToInstance(cfg core.Config, req *Request) (*rerank.Instance, error) {
	if len(req.UserFeatures) != cfg.UserDim {
		return nil, fmt.Errorf("user_features has %d dims, model wants %d", len(req.UserFeatures), cfg.UserDim)
	}
	if len(req.Items) == 0 {
		return nil, fmt.Errorf("no items to re-rank")
	}
	if len(req.Items) > maxListLength {
		return nil, fmt.Errorf("request has %d items, limit is %d", len(req.Items), maxListLength)
	}
	if len(req.TopicSequences) != cfg.Topics {
		return nil, fmt.Errorf("topic_sequences has %d topics, model wants %d", len(req.TopicSequences), cfg.Topics)
	}
	for _, it := range req.Items {
		if len(it.Features) != cfg.ItemDim {
			return nil, fmt.Errorf("item %d has %d feature dims, model wants %d", it.ID, len(it.Features), cfg.ItemDim)
		}
		if len(it.Cover) != cfg.Topics {
			return nil, fmt.Errorf("item %d has %d cover dims, model wants %d", it.ID, len(it.Cover), cfg.Topics)
		}
	}
	h := 0 // sequence items, over every topic
	for j, seq := range req.TopicSequences {
		for _, si := range seq {
			if len(si.Features) != cfg.ItemDim {
				return nil, fmt.Errorf("topic %d sequence item has %d feature dims, model wants %d", j, len(si.Features), cfg.ItemDim)
			}
		}
		h += len(seq)
	}

	l := len(req.Items)
	ids := make([]int, 2*l+h)
	items, byID, seqIDs := ids[:l:l], ids[l:2*l:2*l], ids[2*l:]
	floats := make([]float64, l+cfg.Topics)
	// Unknown-id coverage lookups (sequence items) share one zero vector;
	// callers treat coverage as read-only.
	scores, zeroCover := floats[:l:l], floats[l:]
	rows := make([][]float64, 2*l+h)
	cover, listFeats, seqFeats := rows[:l:l], rows[l:2*l:2*l], rows[2*l:]
	for i := range req.Items {
		it := &req.Items[i]
		items[i], byID[i] = it.ID, i
		scores[i] = it.InitScore
		cover[i], listFeats[i] = it.Cover, it.Features
	}
	slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(items[a], items[b]) })
	for k := 1; k < l; k++ {
		if id := items[byID[k]]; id == items[byID[k-1]] {
			return nil, fmt.Errorf("item %d appears more than once", id)
		}
	}

	base := seqBase(items, byID, h)
	seqs := make([][]int, cfg.Topics)
	k := 0
	for j, seq := range req.TopicSequences {
		start := k
		for _, si := range seq {
			seqIDs[k], seqFeats[k] = base-k, si.Features
			k++
		}
		if k > start {
			seqs[j] = seqIDs[max(start, k-rerank.TopicSeqCap):k:k]
		}
	}
	return &rerank.Instance{
		UserFeat:   req.UserFeatures,
		Items:      items,
		InitScores: scores,
		Cover:      cover,
		TopicSeqs:  seqs,
		M:          cfg.Topics,
		ItemFeat: func(id int) []float64 {
			// Sequence ids are a run with no list id inside it.
			if k := uint(base - id); k < uint(len(seqFeats)) {
				return seqFeats[k]
			}
			if p := position(items, byID, id); p >= 0 {
				return listFeats[p]
			}
			return nil
		},
		CoverOf: func(id int) []float64 {
			if p := position(items, byID, id); p >= 0 {
				return cover[p]
			}
			return zeroCover
		},
	}, nil
}

// position finds a list id's position by binary search over byID, the list
// positions sorted by id; -1 when id is not on the list.
func position(items, byID []int, id int) int {
	if i, ok := slices.BinarySearchFunc(byID, id, func(p, id int) int { return cmp.Compare(items[p], id) }); ok {
		return byID[i]
	}
	return -1
}

// seqBase is the first of h synthetic sequence ids, which run down from it:
// just below the smallest list id, and never above -1. A run that would pass
// math.MinInt starts instead below the list id that ends the widest gap
// between list ids, or at math.MaxInt when the room above the largest is
// wider. The list is at most MaxListLength distinct ids, so that gap leaves
// room for ~2^54 ids, far more than any request carries.
func seqBase(items, byID []int, h int) int {
	lo := min(items[byID[0]], 0)
	if lo >= math.MinInt+h {
		return lo - 1
	}
	base, room := math.MaxInt, uint(math.MaxInt)-uint(items[byID[len(byID)-1]])
	for k := 1; k < len(byID); k++ {
		hi := items[byID[k]]
		if gap := uint(hi) - uint(items[byID[k-1]]) - 1; gap > room {
			base, room = hi-1, gap
		}
	}
	return base
}

// FallbackOrder is the graceful-degradation ranking: the initial ranker's
// ordering by its own scores (stable on ties), exactly what the upstream
// stage would have shown had the re-ranker not existed.
func FallbackOrder(inst *rerank.Instance) ([]int, []float64) {
	return rankBy(inst.Items, inst.InitScores)
}

// rankBy orders items by descending score (stable on ties) and returns the
// ranked ids with their scores aligned.
func rankBy(items []int, scores []float64) ([]int, []float64) {
	ranked := rerank.OrderIndex(scores[:len(items)])
	aligned := make([]float64, len(ranked))
	for i, p := range ranked {
		ranked[i], aligned[i] = items[p], scores[p]
	}
	return ranked, aligned
}
