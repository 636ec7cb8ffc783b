package registry

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rerank"
)

// Config parameterizes a Registry; Root is required.
type Config struct {
	// Root is the versioned model store directory (one subdirectory per
	// published version).
	Root string
	// CanaryPercent is the share of traffic (0–100) routed to a staged
	// candidate version. 0 disables canary routing: a candidate then only
	// receives shadow traffic until promoted.
	CanaryPercent float64
	// Shadow enables asynchronous shadow scoring of the candidate on a
	// bounded worker pool (default off).
	Shadow bool
	// Registry receives the lifecycle metrics; nil means a private one.
	// Pass the serving registry so /metrics carries both namespaces.
	Registry *obs.Registry
	// Loader loads one version's artifacts; nil uses engine.LoadScorer, which
	// returns the neural model or — for manifests naming a diversifier — the
	// weightless classic-diversifier adapter. The seam exists for tests and
	// fault injection.
	Loader func(modelPath string) (engine.Scorer, engine.Manifest, error)
}

// The canary auto-rollback rule: a candidate is demoted once it has served
// minCanarySamples requests (so one unlucky request cannot kill a healthy
// candidate) and its degrade rate exceeds the active model's by more than
// rollbackExcess.
const (
	rollbackExcess   = 0.10
	minCanarySamples = 50
)

// version is one loaded model version with its served-traffic counters. The
// counters live on the version (not the state snapshot) so they accumulate
// across state swaps for as long as the version stays loaded.
type version struct {
	label  string
	scorer engine.Scorer
	man    engine.Manifest

	requests atomic.Int64
	degraded atomic.Int64
	// demoted latches the auto-rollback decision so concurrent observers
	// race to exactly one demotion.
	demoted atomic.Bool
}

func (v *version) degradeRate() float64 {
	n := v.requests.Load()
	if n == 0 {
		return 0
	}
	return float64(v.degraded.Load()) / float64(n)
}

// state is one immutable lifecycle snapshot. Mutations build a new state
// and publish it with a single atomic store; the scoring path loads it once
// per request, which is what makes every served triple coherent.
type state struct {
	active    *version
	candidate *version
	previous  *version // rollback target after a promotion
}

// Registry owns the loaded model versions and implements engine.Provider.
// Scoring (Active/Pick/Observe) is lock-free; lifecycle operations (Load,
// Promote, Rollback) serialize on mu and publish fresh state atomically.
type Registry struct {
	cfg       Config
	mu        sync.Mutex
	state     atomic.Pointer[state]
	onSwap    func() // fired under mu after every state publish; see SetOnSwap
	met       *lifecycleMetrics
	shadow    *shadowPool
	closeOnce sync.Once
}

// SetOnSwap registers a hook fired after every lifecycle state transition
// (load, promote, rollback — manual or automatic). The serving layer wires
// it to Server.FlushStateCache so no cached encoded user state survives a
// model swap. The hook runs under the registry's lifecycle mutex: it must be
// fast and must not call back into the Registry. Call before serving starts;
// a nil f clears the hook.
func (r *Registry) SetOnSwap(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onSwap = f
}

// swap publishes a new lifecycle state and fires the swap hook. Callers must
// hold r.mu — that ordering is what lets the hook's cache flush be complete:
// any scoring pass that cached a state under the old pin either finished
// before the store (flushed now) or picks up the new state's pin.
func (r *Registry) swap(st *state) {
	r.state.Store(st)
	if r.onSwap != nil {
		r.onSwap()
	}
}

// New opens a registry over cfg.Root. No version is loaded yet: call Load
// (directly or via ActivateLatest) before serving.
func New(cfg Config) (*Registry, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("registry: Config.Root is required")
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create root: %w", err)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Loader == nil {
		cfg.Loader = engine.LoadScorer
	}
	r := &Registry{cfg: cfg, met: newLifecycleMetrics(cfg.Registry)}
	r.state.Store(&state{})
	if cfg.Shadow {
		r.shadow = newShadowPool(r.met)
	}
	return r, nil
}

// Close drains the shadow pool; it is idempotent. Lifecycle and scoring
// methods must not be called after Close.
func (r *Registry) Close() {
	r.closeOnce.Do(func() {
		if r.shadow != nil {
			r.shadow.close()
		}
	})
}

// Active implements engine.Provider.
func (r *Registry) Active() engine.Pinned {
	return r.pinOf(r.state.Load().active, false)
}

// Pick implements engine.Provider: the active model, or — while a candidate
// is staged — the candidate for the configured fraction of the user key
// space. The split is deterministic in the key, so a given user always
// lands on the same side while the state holds, whatever slate they send.
func (r *Registry) Pick(user uint64) engine.Pinned {
	st := r.state.Load()
	v, canary := st.active, false
	if st.candidate != nil && r.cfg.CanaryPercent > 0 &&
		float64(user%10_000) < r.cfg.CanaryPercent*100 {
		v, canary = st.candidate, true
	}
	pin := r.pinOf(v, canary)
	if !canary && st.candidate != nil && r.shadow != nil {
		cand := st.candidate
		pin.Shadow = func(inst *rerank.Instance, scores []float64) {
			r.shadow.submit(cand, inst, scores)
		}
	}
	return pin
}

func (r *Registry) pinOf(v *version, canary bool) engine.Pinned {
	if v == nil {
		// Defensive: serving before the first Load. The pin carries a zero
		// geometry, so every request fails validation with a 4xx instead of
		// panicking the scoring path.
		return engine.Pinned{Scorer: noModel{}, Version: "none"}
	}
	return engine.Pinned{
		Scorer:   v.scorer,
		Manifest: v.man,
		Version:  v.label,
		Canary:   canary,
		Observe: func(outcome string, d time.Duration) {
			r.observe(v, canary, outcome, d)
		},
	}
}

// noModel is the scorer served before any version is loaded; requests never
// reach it because the zero manifest geometry rejects them at validation.
type noModel struct{}

func (noModel) Score(context.Context, *rerank.Instance) ([]float64, error) {
	return nil, errors.New("no model version loaded")
}
func (noModel) Name() string { return "none" }

// observe lands one request outcome in the per-version metrics and, for
// canary traffic, evaluates the auto-rollback condition. It runs on the
// request path: a handful of atomic ops, no locks unless a rollback fires.
func (r *Registry) observe(v *version, canary bool, outcome string, d time.Duration) {
	v.requests.Add(1)
	r.met.requests.With(v.label).Inc()
	r.met.latency.With(v.label).ObserveDuration(d)
	if outcome != "ok" {
		v.degraded.Add(1)
		r.met.degraded.With(v.label).Inc()
	}
	if canary {
		r.maybeAutoRollback(v)
	}
}

// maybeAutoRollback demotes the candidate when its degrade rate exceeds the
// active model's by more than the configured excess, after a minimum sample.
// The demoted latch makes the decision fire exactly once even with many
// concurrent observers.
func (r *Registry) maybeAutoRollback(cand *version) {
	st := r.state.Load()
	if st.candidate != cand || st.active == nil {
		return
	}
	n := cand.requests.Load()
	if n < minCanarySamples {
		return
	}
	candRate := cand.degradeRate()
	actRate := st.active.degradeRate()
	if candRate <= actRate+rollbackExcess {
		return
	}
	if !cand.demoted.CompareAndSwap(false, true) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st = r.state.Load()
	if st.candidate != cand {
		return // a racing lifecycle op already moved it
	}
	r.swap(&state{active: st.active, previous: st.previous})
	r.met.rollbacks.With("auto").Inc()
	log.Printf("registry: auto-rollback of canary %s: degrade rate %.4f exceeds active %s rate %.4f by more than %.2f (%d canary requests)",
		cand.label, candRate, st.active.label, actRate, rollbackExcess, n)
}

// Load implements the first two stages of the promotion pipeline for one
// on-disk version: read and strictly validate the artifacts, replay the
// golden warm-up set, and stage the version as the canary candidate — or
// activate it directly when nothing is active yet (process startup).
func (r *Registry) Load(label string) error {
	if err := validLabel(label); err != nil {
		return fmt.Errorf("%w: %v", engine.ErrUnknownVersion, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	if st.active != nil && st.active.label == label {
		return fmt.Errorf("%w: version %s is already active", engine.ErrLifecycleConflict, label)
	}
	if st.candidate != nil && st.candidate.label == label {
		return fmt.Errorf("%w: version %s is already the candidate", engine.ErrLifecycleConflict, label)
	}
	v, err := loadVersion(r.cfg.Loader, r.cfg.Root, label, r.met.warmupLatency.ObserveDuration)
	if errors.Is(err, errWarmup) {
		r.met.warmupFailures.Inc()
	}
	if err != nil {
		return err
	}
	// Touch the per-version series so /metrics shows the new version at
	// zero the moment it is loaded, not at its first request.
	r.met.requests.With(label)
	r.met.degraded.With(label)
	r.met.latency.With(label)
	r.met.loads.Inc()
	if st.active == nil {
		r.swap(&state{active: v})
		log.Printf("registry: activated %s (no prior active version)", label)
		return nil
	}
	r.swap(&state{active: st.active, candidate: v, previous: st.previous})
	log.Printf("registry: staged %s as canary candidate (%.1f%% of traffic, shadow %v)",
		label, r.cfg.CanaryPercent, r.shadow != nil)
	return nil
}

// ActivateLatest loads the newest on-disk version as the active model — the
// process-startup path of rapidserve -model-root.
func (r *Registry) ActivateLatest() (string, error) {
	latest, err := newest(r.cfg.Root)
	if err != nil {
		return "", err
	}
	return latest, r.Load(latest)
}

// Promote makes the named candidate the active model; the displaced active
// version stays loaded as the rollback target.
func (r *Registry) Promote(label string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	if st.candidate == nil {
		return fmt.Errorf("%w: no candidate staged (POST /admin/models/load first)", engine.ErrLifecycleConflict)
	}
	if st.candidate.label != label {
		return fmt.Errorf("%w: candidate is %s, not %s", engine.ErrLifecycleConflict, st.candidate.label, label)
	}
	r.swap(&state{active: st.candidate, previous: st.active})
	r.met.promotions.Inc()
	log.Printf("registry: promoted %s to active (previous %s kept for rollback)", label, st.active.label)
	return nil
}

// Rollback aborts the staged candidate, or — with no candidate — reverts
// the active model to the previous one. Exactly one of the two; with
// neither a candidate nor a previous version it is a conflict.
func (r *Registry) Rollback() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	switch {
	case st.candidate != nil:
		r.swap(&state{active: st.active, previous: st.previous})
		r.met.rollbacks.With("manual").Inc()
		desc := fmt.Sprintf("aborted candidate %s; active stays %s", st.candidate.label, st.active.label)
		log.Printf("registry: %s", desc)
		return desc, nil
	case st.previous != nil:
		r.swap(&state{active: st.previous})
		r.met.rollbacks.With("manual").Inc()
		desc := fmt.Sprintf("reverted active %s to %s", st.active.label, st.previous.label)
		log.Printf("registry: %s", desc)
		return desc, nil
	default:
		return "", fmt.Errorf("%w: nothing to roll back (no candidate, no previous version)", engine.ErrLifecycleConflict)
	}
}

// Versions implements the admin listing: every committed on-disk version
// plus any loaded version, each with its lifecycle state and served-traffic
// counters.
func (r *Registry) Versions() ([]engine.VersionStatus, error) {
	onDisk, err := Scan(r.cfg.Root)
	if err != nil {
		return nil, err
	}
	st := r.state.Load()
	stateOf := map[string]*version{}
	labelState := map[string]string{}
	if st.active != nil {
		stateOf[st.active.label], labelState[st.active.label] = st.active, "active"
	}
	if st.candidate != nil {
		stateOf[st.candidate.label], labelState[st.candidate.label] = st.candidate, "candidate"
	}
	if st.previous != nil {
		stateOf[st.previous.label], labelState[st.previous.label] = st.previous, "previous"
	}
	seen := map[string]bool{}
	var out []engine.VersionStatus
	add := func(label string) {
		if seen[label] {
			return
		}
		seen[label] = true
		vs := engine.VersionStatus{Version: label, State: "available"}
		if v := stateOf[label]; v != nil {
			vs.State = labelState[label]
			vs.Dataset = v.man.Dataset
			vs.Requests = v.requests.Load()
			vs.Degraded = v.degraded.Load()
		}
		out = append(out, vs)
	}
	for _, label := range onDisk {
		add(label)
	}
	// Loaded versions whose directory vanished (operator cleanup) still
	// serve; list them, in lifecycle order, so the admin view matches
	// reality and reads the same on every call.
	for _, v := range []*version{st.active, st.candidate, st.previous} {
		if v != nil {
			add(v.label)
		}
	}
	return out, nil
}
