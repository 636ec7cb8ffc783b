package feedback

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
)

func testSurface() core.Config {
	return core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2,
		Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
}

// seedModelRoot commits one diversifier version so the trainer has a surface
// geometry to copy.
func seedModelRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	man := engine.Manifest{
		Dataset: "test", Lambda: 0.9, Config: testSurface(),
		Diversifier: "mmr", DiversifierLambda: 0.5,
	}
	if _, err := registry.PublishDiversifier(root, "div-seed", man); err != nil {
		t.Fatal(err)
	}
	return root
}

// fakeLifecycle simulates the registry control plane: Load stages a
// candidate, every Versions poll credits it with canary traffic, Promote
// activates it. With rollback set, the candidate vanishes after Load —
// the auto-rollback shape the trainer must respect. With promoteErr set,
// Promote refuses with it instead: a rollback that lands between the
// trainer's last poll and its promote.
type fakeLifecycle struct {
	mu         sync.Mutex
	loads      []string
	promotes   []string
	candidate  string
	requests   int64
	rollback   bool
	promoteErr error
}

func (f *fakeLifecycle) Versions() ([]engine.VersionStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := []engine.VersionStatus{{Version: "div-seed", State: "active", Requests: 100}}
	if f.candidate != "" {
		if f.rollback {
			out = append(out, engine.VersionStatus{Version: f.candidate, State: "available"})
		} else {
			f.requests += 2 // canary traffic arrives while the trainer watches
			out = append(out, engine.VersionStatus{Version: f.candidate, State: "candidate", Requests: f.requests})
		}
	}
	return out, nil
}

func (f *fakeLifecycle) Load(v string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads = append(f.loads, v)
	f.candidate, f.requests = v, 0
	return nil
}

func (f *fakeLifecycle) Promote(v string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoteErr != nil {
		f.candidate = ""
		return f.promoteErr
	}
	f.promotes = append(f.promotes, v)
	f.candidate = ""
	return nil
}

func (f *fakeLifecycle) Rollback() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	desc := "aborted candidate " + f.candidate
	f.candidate = ""
	return desc, nil
}

// writeArmEvents logs n events served by the given arm label, clicking a
// fraction of them.
func writeArmEvents(t *testing.T, l *Log, label string, arm, n int, clickEvery int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev := &Event{
			RequestID: "r", User: uint64(i), Version: label, Arm: arm,
			UnixMS: int64(i), Items: []int{i, i + 1, i + 2},
		}
		if clickEvery > 0 && i%clickEvery == 0 {
			ev.Clicks = []bool{true}
		}
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrainerPublishesBestArmAndPromotes(t *testing.T) {
	logDir := t.TempDir()
	l, err := Open(logDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Arm 1 (λ=0.80) clicks on every event, arm 0 on none: the replayed
	// tallies must make λ=0.80 the published choice.
	writeArmEvents(t, l, "bandit-mmr@0.20", 0, 10, 0)
	writeArmEvents(t, l, "bandit-mmr@0.80", 1, 10, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	root := seedModelRoot(t)
	lc := &fakeLifecycle{}
	tr, err := NewTrainer(TrainerConfig{
		LogDir: logDir, ModelRoot: root, Lifecycle: lc,
		MinEvents: 10, MinArmPulls: 5, PromoteAfter: 4,
		promotePoll: 1, PromoteTimeout: 5_000_000_000, // 1ns poll, 5s timeout
		logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(lc.loads) != 1 || lc.loads[0] != "div-fb-1" {
		t.Fatalf("loads = %v, want [div-fb-1]", lc.loads)
	}
	if len(lc.promotes) != 1 || lc.promotes[0] != "div-fb-1" {
		t.Fatalf("promotes = %v, want [div-fb-1]", lc.promotes)
	}
	man, err := engine.ReadManifest(registry.ModelPath(root, "div-fb-1"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Diversifier != "mmr" || man.DiversifierLambda != 0.80 {
		t.Fatalf("published %s@%.2f, want mmr@0.80", man.Diversifier, man.DiversifierLambda)
	}
	if man.Config != testSurface() {
		t.Fatal("surface geometry not copied from the newest version")
	}
	if man.Metrics["feedback_sessions"] != 20 {
		t.Fatalf("manifest metrics %v, want 20 sessions", man.Metrics)
	}
	if tr.Incremental().Sessions() != 20 {
		t.Fatalf("incremental absorbed %d sessions, want 20", tr.Incremental().Sessions())
	}

	// No new events: the next step must not publish again.
	if err := tr.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(lc.loads) != 1 {
		t.Fatalf("idle step published: loads = %v", lc.loads)
	}
}

func TestTrainerCursorAcrossSteps(t *testing.T) {
	logDir := t.TempDir()
	l, err := Open(logDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeArmEvents(t, l, "bandit-mmr@0.80", 1, 12, 1)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	root := seedModelRoot(t)
	lc := &fakeLifecycle{}
	tr, err := NewTrainer(TrainerConfig{
		LogDir: logDir, ModelRoot: root, Lifecycle: lc,
		MinEvents: 10, MinArmPulls: 5, PromoteAfter: 2,
		promotePoll: 1, logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	writeArmEvents(t, l, "bandit-mmr@0.80", 1, 12, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tr.Incremental().Sessions(); got != 24 {
		t.Fatalf("sessions after two steps = %d, want 24 (each event replayed once)", got)
	}
	if len(lc.loads) != 2 || lc.loads[1] != "div-fb-2" {
		t.Fatalf("loads = %v, want a second publish div-fb-2", lc.loads)
	}
	// Both versions exist on disk.
	for _, v := range []string{"div-fb-1", "div-fb-2"} {
		if _, err := os.Stat(filepath.Join(root, v)); err != nil {
			t.Fatalf("%s not committed: %v", v, err)
		}
	}
}

// TestTrainerRespectsRollback: a candidate rolled back during its canary is
// never promoted, and the cycle does not fail over it — whether the trainer
// sees the rollback in a Versions poll or only as Promote's conflict.
func TestTrainerRespectsRollback(t *testing.T) {
	for name, lc := range map[string]*fakeLifecycle{
		"seen while watching": {rollback: true},
		"between poll and promote": {promoteErr: fmt.Errorf("%w: no candidate staged (POST /admin/models/load first)",
			engine.ErrLifecycleConflict)},
	} {
		t.Run(name, func(t *testing.T) {
			logDir := t.TempDir()
			l, err := Open(logDir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			writeArmEvents(t, l, "bandit-mmr@0.80", 1, 10, 1)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tr, err := NewTrainer(TrainerConfig{
				LogDir: logDir, ModelRoot: seedModelRoot(t), Lifecycle: lc,
				MinEvents: 5, MinArmPulls: 5, PromoteAfter: 2,
				promotePoll: 1, logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Step(context.Background()); err != nil {
				t.Fatalf("a rolled-back candidate failed the cycle: %v", err)
			}
			if len(lc.loads) != 1 {
				t.Fatalf("loads = %v, want one staged candidate", lc.loads)
			}
			if len(lc.promotes) != 0 {
				t.Fatalf("trainer promoted over a rollback: %v", lc.promotes)
			}
		})
	}
}

// TestTrainerBoundsResiduals: the trainer is the one process designed to run
// forever, so the clicked sessions it retains for exact EM refinement are
// capped — past maxResiduals the oldest are folded, not kept.
func TestTrainerBoundsResiduals(t *testing.T) {
	logDir := t.TempDir()
	l, err := Open(logDir, Options{syncEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 100
	writeArmEvents(t, l, "bandit-mmr@0.80", 1, maxResiduals+extra, 1) // every session clicked
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(TrainerConfig{
		LogDir: logDir, ModelRoot: seedModelRoot(t), Lifecycle: &fakeLifecycle{},
		MinEvents: 1, PromoteAfter: 2, promotePoll: 1, logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	inc := tr.Incremental()
	if inc.Sessions() != maxResiduals+extra {
		t.Fatalf("replayed %d sessions, want %d", inc.Sessions(), maxResiduals+extra)
	}
	if inc.Residuals() > maxResiduals || inc.Compacted() != extra {
		t.Fatalf("after a step past the bound: %d residuals retained (bound %d), %d compacted (want %d)",
			inc.Residuals(), maxResiduals, inc.Compacted(), extra)
	}
}

// Incremental exposes the trainer's click model to the tests.
func (t *Trainer) Incremental() *clickmodel.Incremental { return t.inc }
