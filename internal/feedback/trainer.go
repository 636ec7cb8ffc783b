package feedback

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/bandit"
	"repro/internal/clickmodel"
	"repro/internal/engine"
	"repro/internal/registry"
)

// TrainerConfig bounds a Trainer. LogDir, ModelRoot and Lifecycle are
// required; the zero value of every other field falls back to the listed
// default.
type TrainerConfig struct {
	// LogDir is the feedback log directory to replay.
	LogDir string
	// ModelRoot is the registry store the trainer publishes into. The newest
	// committed version's manifest supplies the surface geometry for the
	// published online-learned version.
	ModelRoot string
	// Lifecycle stages and promotes what the trainer publishes:
	// registry.Registry in-process, serve.AdminClient against a running
	// rapidserve.
	Lifecycle engine.Lifecycle
	// Interval is the re-estimation cadence for Run (default 15s).
	Interval time.Duration
	// MinEvents is how many new events must accumulate before a re-estimate
	// and republish happens (default 200).
	MinEvents int
	// MinArmPulls gates arm selection: an arm with less evidence cannot be
	// published (default 50). With no qualifying arm the trainer publishes
	// defaultDiversifier@defaultLambda.
	MinArmPulls int64
	// PromoteAfter is the canary traffic (requests served by the candidate)
	// the trainer waits for before promoting (default 50). The wait is what
	// arms auto-rollback: a candidate that degrades is demoted by the
	// registry while the trainer watches, and the trainer then aborts the
	// promote instead of forcing a bad version active.
	PromoteAfter int64
	// PromoteTimeout bounds the canary watch (default 60s), which polls
	// every defaultPromotePoll. On timeout the candidate stays staged —
	// promotion is retried on the next cycle rather than forced.
	PromoteTimeout time.Duration

	// promotePoll overrides defaultPromotePoll when positive, and logf
	// replaces log.Printf for operational messages when set (tests set
	// both).
	promotePoll time.Duration
	logf        func(format string, args ...any)
}

// defaultPromotePoll is how often the canary watch polls the candidate.
const defaultPromotePoll = 250 * time.Millisecond

func (c TrainerConfig) withDefaults() TrainerConfig {
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.MinEvents <= 0 {
		c.MinEvents = 200
	}
	if c.MinArmPulls <= 0 {
		c.MinArmPulls = 50
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 50
	}
	if c.promotePoll <= 0 {
		c.promotePoll = defaultPromotePoll
	}
	if c.PromoteTimeout <= 0 {
		c.PromoteTimeout = 60 * time.Second
	}
	if c.logf == nil {
		c.logf = log.Printf
	}
	return c
}

const (
	// defaultDiversifier and defaultLambda are the λ choice the trainer
	// publishes before any bandit arm has MinArmPulls of evidence.
	defaultDiversifier = "mmr"
	defaultLambda      = 0.5
	// PositionHorizon is the click-model position horizon — the length of the
	// fitted ε̃ vector — for every estimator over the feedback log.
	PositionHorizon = 64
	// maxResiduals bounds the clicked sessions the trainer's estimator retains
	// for exact EM refinement. Past it the oldest are folded at their converged
	// posterior (clickmodel.Incremental.Compact), so a trainer that runs for
	// months holds a few MB of residuals, not its whole history.
	maxResiduals = 1 << 16
)

// armTally is per-arm evidence recovered from replayed log events.
type armTally struct {
	arm     bandit.Arm
	pulls   int64
	rewards int64
}

// Trainer is the re-estimate/republish driver: replay new log events into
// the incremental click model, and once enough evidence accumulates, publish
// the bandit's best λ as a canaried diversifier version and walk it through
// the registry lifecycle (load → canary watch → promote). Everything an
// online-learned version serves has passed warm-up and canary exactly like
// an offline-trained one.
type Trainer struct {
	cfg     TrainerConfig
	inc     *clickmodel.Incremental
	cursor  uint64 // next log seq to replay
	pending int    // events since the last re-estimate
	armsSum map[string]*armTally
	pubSeq  int
}

// NewTrainer validates the config and builds a trainer with an empty model.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.LogDir == "" || cfg.ModelRoot == "" || cfg.Lifecycle == nil {
		return nil, fmt.Errorf("feedback: trainer needs LogDir, ModelRoot and Lifecycle")
	}
	return &Trainer{
		cfg:     cfg,
		inc:     clickmodel.NewIncremental(PositionHorizon),
		cursor:  1,
		armsSum: make(map[string]*armTally),
	}, nil
}

// Run re-estimates on the configured cadence until ctx is canceled.
func (t *Trainer) Run(ctx context.Context) error {
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if err := t.Step(ctx); err != nil {
				t.cfg.logf("feedback: trainer step: %v", err)
			}
		}
	}
}

// Step runs one cycle: replay, and if MinEvents accumulated, re-estimate and
// republish. Exported so tests and the smoke drive cycles deterministically.
func (t *Trainer) Step(ctx context.Context) error {
	n, err := t.replayNew()
	if err != nil {
		return err
	}
	t.pending += n
	if t.pending < t.cfg.MinEvents {
		return nil
	}
	est := t.inc.Estimate(1, nil)
	t.inc.Compact(maxResiduals)
	t.pending = 0
	arm := t.bestArm()
	label, err := t.publish(arm, est)
	if err != nil {
		return err
	}
	t.cfg.logf("feedback: published %s (arm %s, %d sessions, %d clicks)",
		label, arm.Label(), t.inc.Sessions(), t.inc.Clicks())
	return t.deploy(ctx, label)
}

// replayNew folds log events at or past the cursor into the click model and
// the arm tallies.
func (t *Trainer) replayNew() (int, error) {
	n := 0
	st, err := Replay(t.cfg.LogDir, t.cursor, func(seq uint64, ev Event) error {
		t.inc.Add(ev.session())
		if ev.Arm >= 0 {
			if arm, ok := bandit.ParseArmLabel(ev.Version); ok {
				tal := t.armsSum[ev.Version]
				if tal == nil {
					tal = &armTally{arm: arm}
					t.armsSum[ev.Version] = tal
				}
				tal.pulls++
				if ev.clicked() {
					tal.rewards++
				}
			}
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	if st.NextSeq > t.cursor {
		t.cursor = st.NextSeq
	}
	return n, nil
}

// bestArm picks the λ to publish: the arm with the best click-through among
// the replayed tallies with enough evidence, else the configured default.
func (t *Trainer) bestArm() bandit.Arm {
	var best *armTally
	var bestMean float64
	for _, tal := range t.armsSum {
		if tal.pulls < t.cfg.MinArmPulls {
			continue
		}
		if m := float64(tal.rewards) / float64(tal.pulls); best == nil || m > bestMean {
			best, bestMean = tal, m
		}
	}
	if best != nil {
		return best.arm
	}
	return bandit.Arm{Name: defaultDiversifier, Lambda: defaultLambda}
}

// publish commits the online-learned version: the newest on-disk manifest
// supplies the surface geometry, the arm supplies the diversifier and λ, and
// the estimated DCM summary lands in the manifest metrics for operator
// forensics. Labels are "div-fb-<n>" — they sort with the other diversifier
// versions and read as feedback-derived at a glance.
func (t *Trainer) publish(arm bandit.Arm, est *clickmodel.Estimated) (string, error) {
	man, versions, err := registry.DiversifierManifest(t.cfg.ModelRoot, arm.Name, arm.Lambda, map[string]float64{
		"feedback_sessions": float64(t.inc.Sessions()),
		"feedback_clicks":   float64(t.inc.Clicks()),
		"feedback_eps_p0":   firstEps(est),
		"feedback_lambda":   arm.Lambda,
	})
	if err != nil {
		return "", err
	}
	exists := make(map[string]bool, len(versions))
	for _, v := range versions {
		exists[v] = true
	}
	for {
		t.pubSeq++
		label := fmt.Sprintf("div-fb-%d", t.pubSeq)
		if exists[label] {
			continue // survive restarts: skip labels an earlier run committed
		}
		return registry.PublishDiversifier(t.cfg.ModelRoot, label, man)
	}
}

func firstEps(est *clickmodel.Estimated) float64 {
	if len(est.Eps) > 0 {
		return est.Eps[0]
	}
	return 0
}

// deploy walks the published version through the lifecycle: stage it as the
// canary candidate, wait for PromoteAfter canary requests, promote. If the
// candidate disappears while watched, auto-rollback (or an operator) killed
// it — the trainer logs and moves on; never promote over a rollback.
func (t *Trainer) deploy(ctx context.Context, label string) error {
	if err := t.cfg.Lifecycle.Load(label); err != nil {
		return fmt.Errorf("feedback: stage %s: %w", label, err)
	}
	t.cfg.logf("feedback: staged %s as canary candidate", label)
	deadline := time.NewTimer(t.cfg.PromoteTimeout)
	defer deadline.Stop()
	poll := time.NewTicker(t.cfg.promotePoll)
	defer poll.Stop()
	for {
		vs, err := t.cfg.Lifecycle.Versions()
		if err != nil {
			return err
		}
		var cand *engine.VersionStatus
		for i := range vs {
			if vs[i].Version == label {
				cand = &vs[i]
				break
			}
		}
		switch {
		case cand == nil || cand.State == "available":
			t.cfg.logf("feedback: candidate %s was rolled back during canary; not promoting", label)
			return nil
		case cand.State == "active":
			return nil // someone promoted it for us
		case cand.Requests >= t.cfg.PromoteAfter:
			err := t.cfg.Lifecycle.Promote(label)
			if errors.Is(err, engine.ErrLifecycleConflict) {
				// Rolled back between the poll and the promote.
				t.cfg.logf("feedback: candidate %s is no longer staged; not promoting", label)
				return nil
			}
			if err != nil {
				return fmt.Errorf("feedback: promote %s: %w", label, err)
			}
			t.cfg.logf("feedback: promoted %s after %d canary requests (%d degraded)",
				label, cand.Requests, cand.Degraded)
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			t.cfg.logf("feedback: canary watch for %s timed out at %d/%d requests; leaving it staged",
				label, candRequests(vs, label), t.cfg.PromoteAfter)
			return nil
		case <-poll.C:
		}
	}
}

func candRequests(vs []engine.VersionStatus, label string) int64 {
	for _, v := range vs {
		if v.Version == label {
			return v.Requests
		}
	}
	return 0
}

// ReplaySessions replays a whole log into batch click-model sessions — the
// reference input for the incremental-vs-batch equivalence check.
func ReplaySessions(dir string) ([]clickmodel.Session, ReplayStats, error) {
	var out []clickmodel.Session
	st, err := Replay(dir, 0, func(_ uint64, ev Event) error {
		out = append(out, ev.session())
		return nil
	})
	return out, st, err
}
