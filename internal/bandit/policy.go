package bandit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file promotes the package from an offline regret study to a serving
// component: Policy is a per-user-segment bandit over the relevance/diversity
// λ of the classic diversifiers (the PR 8 weightless versions), designed to
// sit on the request hot path. Selection is a lock-free read of a precomputed
// copy-on-write score table; all learning (LinUCB via Sherman–Morrison)
// happens in Update, which the feedback ingestor calls off the scoring path.

// Arm is one λ choice the policy can pull: a named classic diversifier
// (internal/diversify registry name) at a fixed relevance/diversity λ.
type Arm struct {
	Name   string
	Lambda float64
}

// Label is the version label an arm serves under, e.g. "bandit-mmr@0.30".
// The label doubles as the correlation key: feedback events carry the
// serving version, and ParseArmLabel/ArmIndex recover the arm from it.
func (a Arm) Label() string {
	return fmt.Sprintf("bandit-%s@%.2f", a.Name, a.Lambda)
}

// ParseArmLabel inverts Label. It reports false for any non-arm version
// label (model versions "v…", classic diversifier versions "div-…").
func ParseArmLabel(s string) (Arm, bool) {
	rest, ok := strings.CutPrefix(s, "bandit-")
	if !ok {
		return Arm{}, false
	}
	name, lam, ok := strings.Cut(rest, "@")
	if !ok || name == "" {
		return Arm{}, false
	}
	l, err := strconv.ParseFloat(lam, 64)
	if err != nil || l < 0 || l > 1 {
		return Arm{}, false
	}
	return Arm{Name: name, Lambda: l}, true
}

// ParseArms parses a comma-separated arm list ("mmr@0.2,mmr@0.5,window@0.8").
// A bare name gets λ = 0.5.
func ParseArms(s string) ([]Arm, error) {
	var arms []Arm
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, lam, hasLam := strings.Cut(part, "@")
		a := Arm{Name: name, Lambda: 0.5}
		if hasLam {
			l, err := strconv.ParseFloat(lam, 64)
			if err != nil || l < 0 || l > 1 {
				return nil, fmt.Errorf("bandit: arm %q: λ must be in [0,1]", part)
			}
			a.Lambda = l
		}
		if a.Name == "" {
			return nil, fmt.Errorf("bandit: arm %q has no diversifier name", part)
		}
		arms = append(arms, a)
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("bandit: empty arm list")
	}
	return arms, nil
}

// PolicyConfig bounds a serving-path policy.
type PolicyConfig struct {
	// Arms is the λ grid (required, at least one arm).
	Arms []Arm
	// Segments partitions users by user key (key % Segments); each segment
	// learns its own arm values so focused and diffuse audiences can settle
	// on different λ. Default 8.
	Segments int
	// Seed perturbs the deterministic exploration stream.
	Seed uint64
}

// The learner is LinUCB: a disjoint ridge regression per arm over [bias,
// one-hot(segment)] contexts with a UCB bonus of ucbScale confidence widths,
// under a forced-exploration slice of exploreRate so every arm keeps
// receiving traffic.
const (
	exploreRate = 0.05
	ucbScale    = 0.5
)

// policyTable is the immutable hot-path view: selection scores per
// (segment, arm), rebuilt by Update and swapped in atomically. Select never
// takes a lock and never allocates.
type policyTable struct {
	scores [][]float64 // [segment][arm], higher wins
}

// armStats is the single-writer learning state for one (segment, arm) cell.
type armStats struct {
	pulls  int64
	reward float64
}

// Policy is a per-user-segment bandit over λ arms, safe for one concurrent
// updater (the feedback ingest goroutine) and any number of selectors (the
// request handlers).
type Policy struct {
	cfg     PolicyConfig
	byLabel map[string]int
	table   atomic.Pointer[policyTable]
	selSeq  atomic.Uint64 // exploration stream position

	mu    sync.Mutex
	cells [][]armStats // [segment][arm]
	// LinUCB state: one ridge regression per arm over d = 1+Segments
	// one-hot contexts. ainv is A⁻¹ kept by Sherman–Morrison; bvec is Σ x·y.
	ainv [][]float64 // [arm][d*d]
	bvec [][]float64 // [arm][d]

	updates   atomic.Int64
	cumReward float64
	cumRegret float64 // Σ (best empirical segment mean − reward)
}

// NewPolicy validates the config and builds a policy with a uniform table.
func NewPolicy(cfg PolicyConfig) (*Policy, error) {
	if cfg.Segments <= 0 {
		cfg.Segments = 8
	}
	if len(cfg.Arms) == 0 {
		return nil, fmt.Errorf("bandit: policy needs at least one arm")
	}
	p := &Policy{cfg: cfg, byLabel: make(map[string]int, len(cfg.Arms))}
	for i, a := range cfg.Arms {
		if _, dup := p.byLabel[a.Label()]; dup {
			return nil, fmt.Errorf("bandit: duplicate arm %s", a.Label())
		}
		p.byLabel[a.Label()] = i
	}
	p.cells = make([][]armStats, cfg.Segments)
	scores := make([][]float64, cfg.Segments)
	for s := range p.cells {
		p.cells[s] = make([]armStats, len(cfg.Arms))
		scores[s] = make([]float64, len(cfg.Arms))
	}
	d := 1 + cfg.Segments
	p.ainv = make([][]float64, len(cfg.Arms))
	p.bvec = make([][]float64, len(cfg.Arms))
	for a := range cfg.Arms {
		p.ainv[a] = identity(d)
		p.bvec[a] = make([]float64, d)
	}
	p.table.Store(&policyTable{scores: scores})
	return p, nil
}

// Arms returns the λ grid in arm-index order.
func (p *Policy) Arms() []Arm { return p.cfg.Arms }

// ArmIndex resolves a serving version label to its arm, reporting false for
// non-arm labels. The ingestor uses it to credit feedback to arms without
// the serving layer knowing anything about the policy.
func (p *Policy) ArmIndex(label string) (int, bool) {
	i, ok := p.byLabel[label]
	return i, ok
}

// Segment maps a user key to its learning segment.
func (p *Policy) Segment(user uint64) int {
	return int(user % uint64(p.cfg.Segments))
}

// Select picks the arm for a request: the precomputed argmax of its
// segment's scores, with an exploreRate slice of traffic diverted to a
// deterministic pseudo-random arm so every arm keeps accruing evidence.
// Lock-free and allocation-free — this is the scoring hot path.
func (p *Policy) Select(user uint64) int {
	t := p.table.Load()
	seg := p.Segment(user)
	// The exploration stream mixes the user with a global sequence number:
	// the same user explores different arms over time, but the decision is
	// reproducible from (user, sequence) — no locked RNG on the hot path.
	h := Mix64(user ^ (p.selSeq.Add(1) * 0x9e3779b97f4a7c15) ^ p.cfg.Seed)
	nArms := uint64(len(p.cfg.Arms))
	if float64(h>>11)/(1<<53) < exploreRate {
		return int(Mix64(h) % nArms)
	}
	best, bestScore := 0, math.Inf(-1)
	for a, s := range t.scores[seg] {
		if s > bestScore {
			best, bestScore = a, s
		}
	}
	return best
}

// Update credits one observed reward (clicked-any ∈ {0,1}, but any bounded
// value works) to an arm pulled for a user, relearns, and publishes a fresh
// score table. Called from the feedback ingest goroutine only — never from
// a request handler — so learning cost (O(arms·d²)) stays off the scoring
// hot path by construction.
func (p *Policy) Update(user uint64, arm int, reward float64) {
	if arm < 0 || arm >= len(p.cfg.Arms) {
		return
	}
	seg := p.Segment(user)
	p.mu.Lock()
	defer p.mu.Unlock()
	// Estimated regret against the best empirical mean of the segment,
	// accumulated before folding in the new sample (the comparator must not
	// include the reward it judges).
	if best, ok := p.bestMeanLocked(seg); ok {
		if r := best - reward; r > 0 {
			p.cumRegret += r
		}
	}
	c := &p.cells[seg][arm]
	c.pulls++
	c.reward += reward
	p.cumReward += reward
	x := p.context(seg)
	shermanMorrison(p.ainv[arm], x)
	for i, xi := range x {
		p.bvec[arm][i] += xi * reward
	}
	p.publishLocked()
	p.updates.Add(1)
}

// bestMeanLocked returns the best empirical arm mean within a segment.
func (p *Policy) bestMeanLocked(seg int) (float64, bool) {
	best, ok := 0.0, false
	for a := range p.cells[seg] {
		if c := p.cells[seg][a]; c.pulls > 0 {
			if m := c.reward / float64(c.pulls); !ok || m > best {
				best, ok = m, true
			}
		}
	}
	return best, ok
}

// publishLocked rebuilds the immutable score table from the learner state.
func (p *Policy) publishLocked() {
	nSeg, nArms := p.cfg.Segments, len(p.cfg.Arms)
	scores := make([][]float64, nSeg)
	for seg := 0; seg < nSeg; seg++ {
		row := make([]float64, nArms)
		for a := 0; a < nArms; a++ {
			row[a] = p.scoreLocked(seg, a)
		}
		scores[seg] = row
	}
	p.table.Store(&policyTable{scores: scores})
}

// scoreLocked is the selection score of one (segment, arm) cell: its upper
// confidence bound.
func (p *Policy) scoreLocked(seg, arm int) float64 {
	x := p.context(seg)
	d := len(x)
	ainv := p.ainv[arm]
	// ŵ = A⁻¹·b, mean = ŵᵀx; with the one-hot context this reduces to two
	// rows of A⁻¹, but keeping the general form documents the algorithm.
	mean := 0.0
	for i := 0; i < d; i++ {
		var wi float64
		for j := 0; j < d; j++ {
			wi += ainv[i*d+j] * p.bvec[arm][j]
		}
		mean += wi * x[i]
	}
	// xᵀA⁻¹x confidence width.
	var q float64
	for i := 0; i < d; i++ {
		var s float64
		for j := 0; j < d; j++ {
			s += ainv[i*d+j] * x[j]
		}
		q += x[i] * s
	}
	if q < 0 {
		q = 0
	}
	return mean + ucbScale*math.Sqrt(q)
}

// context is the LinUCB feature of a segment: bias + one-hot(segment). The
// shared bias row pools evidence across segments, so a cold segment starts
// from the global arm ordering instead of from scratch.
func (p *Policy) context(seg int) []float64 {
	x := make([]float64, 1+p.cfg.Segments)
	x[0] = 1
	x[1+seg] = 1
	return x
}

// ArmSnapshot is one arm's aggregate across all segments.
type ArmSnapshot struct {
	Arm    Arm     `json:"arm"`
	Label  string  `json:"label"`
	Pulls  int64   `json:"pulls"`
	Reward float64 `json:"reward"`
}

// PolicySnapshot is a consistent view of the policy's learning state.
type PolicySnapshot struct {
	Arms      []ArmSnapshot `json:"arms"`
	Updates   int64         `json:"updates"`
	CumReward float64       `json:"cum_reward"`
	// CumRegret is the estimated cumulative regret: Σ over updates of
	// (best empirical mean of the segment − observed reward), clamped at 0
	// per update. An observable proxy — true regret needs the unknowable
	// counterfactual reward — whose growth rate is what dashboards watch.
	CumRegret float64 `json:"cum_regret"`
}

// Snapshot aggregates per-arm pulls and rewards across segments.
func (p *Policy) Snapshot() PolicySnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := PolicySnapshot{
		Updates:   p.updates.Load(),
		CumReward: p.cumReward,
		CumRegret: p.cumRegret,
	}
	for a, arm := range p.cfg.Arms {
		as := ArmSnapshot{Arm: arm, Label: arm.Label()}
		for seg := range p.cells {
			as.Pulls += p.cells[seg][a].pulls
			as.Reward += p.cells[seg][a].reward
		}
		out.Arms = append(out.Arms, as)
	}
	return out
}

func identity(d int) []float64 {
	m := make([]float64, d*d)
	for i := 0; i < d; i++ {
		m[i*d+i] = 1
	}
	return m
}

// shermanMorrison applies A⁻¹ ← A⁻¹ − (A⁻¹xxᵀA⁻¹)/(1+xᵀA⁻¹x) in place on a
// row-major d×d matrix.
func shermanMorrison(ainv []float64, x []float64) {
	d := len(x)
	u := make([]float64, d) // A⁻¹·x
	for i := 0; i < d; i++ {
		var s float64
		for j := 0; j < d; j++ {
			s += ainv[i*d+j] * x[j]
		}
		u[i] = s
	}
	var denom float64 = 1
	for i, xi := range x {
		denom += xi * u[i]
	}
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			ainv[i*d+j] -= u[i] * u[j] / denom
		}
	}
}

// Mix64 is splitmix64 (the golden-ratio increment, then its finalizer): a
// cheap, well-distributed hash for the hot-path exploration stream and for
// feedback's bandit traffic split.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
