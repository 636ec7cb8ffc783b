package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rerank"
	"repro/internal/topics"
)

// modelSeed fixes the model's weights: the model is the program under test,
// only its inputs follow -seed.
const modelSeed = 7

// idStride spaces the item ids of consecutive pool entries, so an item id
// names its entry (id / idStride) and its place in the initial list
// (id % idStride). That is how a response is checked to be a permutation of
// its request, and how a scorer-side span finds the request it served.
// Item ids feed engine.RouteKey, which picks the replica and keys the state
// cache, so they belong to the entry and stay the same on every re-issue.
const idStride = 32

// modelConfig is the paper's Taobao setting the experiments use: user 13,
// item 8, 5 topics; hidden 16, D 5, RAPID-pro over a Bi-LSTM.
func modelConfig() core.Config {
	t := dataset.TaobaoLike(0)
	return core.DefaultConfig(t.UserDim, t.ItemDim, t.Topics, modelSeed)
}

// entry is one synthetic user's re-rank request.
type entry struct {
	req engine.Request
	// base is the request's first user feature, rounded so that adding
	// serial·userStep gives a distinct float for every serial.
	base float64
	// body is the request as JSON with base written as a fixed-width decimal
	// whose last serialDigits digits are zero; slot is where those digits
	// sit, so a never-seen user costs the generator nine byte writes.
	body []byte
	slot int
}

const (
	serialDigits = 9
	baseDecimals = 4
	userStep     = 1e-13 // 10^-(baseDecimals+serialDigits)
)

// newPool is the seeded input set of one workload: it draws n requests from a Taobao-like synthetic dataset generated
// from seed: entry k is the dataset's k-th re-rank pool — a user with their
// candidates — cut to listLens[k%len] items ordered by ground-truth
// relevance (the stand-in for an initial ranker's scores), with the user's
// behaviour history split per topic as rerank.NewInstance splits it. Users
// differ in how much history they have, so per-topic sequences run from 0 to
// D items. withJSON also pre-encodes the bodies.
func newPool(seed int64, n int, listLens []int, withJSON bool) ([]entry, error) {
	cfg := modelConfig()
	dcfg := dataset.TaobaoLike(seed)
	dcfg = dcfg.Scaled(math.Max(0.1, 1.05*float64(n)/float64(dcfg.RerankRequests)))
	d, err := dataset.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	if len(d.RerankPools) < n {
		return nil, fmt.Errorf("dataset has %d pools, need %d", len(d.RerankPools), n)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x706f6f6c))
	entries := make([]entry, n)
	for k := range entries {
		dp := d.RerankPools[k]
		l := listLens[k%len(listLens)]
		if l > len(dp.Candidates) || l > idStride {
			return nil, fmt.Errorf("list length %d exceeds pool size %d or id stride", l, len(dp.Candidates))
		}
		cands := append([]int(nil), dp.Candidates...)
		rel := make(map[int]float64, len(cands))
		for _, v := range cands {
			rel[v] = d.Relevance(dp.User, v)
		}
		sort.SliceStable(cands, func(a, b int) bool { return rel[cands[a]] > rel[cands[b]] })
		e := &entries[k]
		e.req.Items = make([]engine.Item, l)
		for i, v := range cands[:l] {
			e.req.Items[i] = engine.Item{
				ID:        k*idStride + i,
				Features:  d.ItemFeatures(v),
				Cover:     d.Cover(v),
				InitScore: rel[v],
			}
		}
		hist := d.Users[dp.User].History
		seqs := topics.SplitByTopic(hist, d.Cover, cfg.Topics, rerank.TopicSeqCap, rng)
		e.req.TopicSequences = make([][]engine.SeqItem, cfg.Topics)
		for j, seq := range seqs {
			if len(seq) > cfg.D {
				seq = seq[len(seq)-cfg.D:]
			}
			e.req.TopicSequences[j] = make([]engine.SeqItem, len(seq))
			for t, v := range seq {
				e.req.TopicSequences[j][t] = engine.SeqItem{Features: d.ItemFeatures(v)}
			}
		}
		pow := math.Pow(10, baseDecimals)
		e.base = math.Round(d.UserFeatures(dp.User)[0]*pow) / pow
		e.req.UserFeatures = append([]float64(nil), d.UserFeatures(dp.User)...)
		e.req.UserFeatures[0] = e.base
		if withJSON {
			if err := e.encodeBody(); err != nil {
				return nil, err
			}
		}
	}
	return entries, nil
}

// encodeBody marshals the request and rewrites its first number — the first
// user feature — as a fixed-width decimal ending in the serial slot.
func (e *entry) encodeBody() error {
	raw, err := json.Marshal(&e.req)
	if err != nil {
		return err
	}
	const prefix = `{"user_features":[`
	end := bytes.IndexByte(raw[len(prefix):], ',')
	if !bytes.HasPrefix(raw, []byte(prefix)) || end < 0 {
		return fmt.Errorf("request JSON does not start with the user features")
	}
	fixed := strconv.FormatFloat(e.base, 'f', baseDecimals+serialDigits, 64)
	e.body = append(append(append([]byte(nil), prefix...), fixed...), raw[len(prefix)+end:]...)
	e.slot = len(prefix) + len(fixed) - serialDigits
	return nil
}

// stamp turns the entry's request into a never-seen user's: the same
// request with the first user feature moved by serial·userStep, which
// changes engine.HistoryKey and engine.RouteKey and nothing the model
// notices.
func (e *entry) stamp(serial int) {
	e.req.UserFeatures[0] = e.base + float64(serial)*userStep
}

// stampBody writes the same change into a copy of the entry's JSON body.
func (e *entry) stampBody(dst []byte, serial int) []byte {
	dst = append(dst[:0], e.body...)
	for i := serialDigits - 1; i >= 0; i-- {
		dst[e.slot+i] = byte('0' + serial%10)
		serial /= 10
	}
	return dst
}
