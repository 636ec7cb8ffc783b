package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/rerank"
)

func TestManifestPathSuffix(t *testing.T) {
	if got := engine.ManifestPath("m.gob"); got != "m.json" {
		t.Fatalf("ManifestPath = %s", got)
	}
	if got := engine.ManifestPath("dir/model.gob"); got != "dir/model.json" {
		t.Fatalf("ManifestPath = %s", got)
	}
}

func trainOpts(out string) options {
	return options{dataset: "taobao", scale: 0.02, seed: 7, lambda: 0.9, out: out, ckptEvery: 1}
}

func TestTrainAndSaveRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "model.gob")
	store := filepath.Join(dir, "store")
	o := trainOpts(out)
	o.publish = store
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// The weights file and manifest must exist and load back strictly
	// through the serving loader.
	m, man, err := engine.LoadModel(out)
	if err != nil {
		t.Fatal(err)
	}
	if man.Dataset != "taobao" || man.Config.Topics != 5 {
		t.Fatalf("manifest %+v", man)
	}
	if m.Cfg.Topics != 5 {
		t.Fatalf("model config %+v", m.Cfg)
	}
	if len(man.Metrics) == 0 {
		t.Fatal("manifest carries no evaluation metrics")
	}

	// -publish must have committed exactly one version into the store, and it
	// must load back through the same strict production loader.
	versions, err := registry.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 {
		t.Fatalf("published versions %v, want exactly one", versions)
	}
	if _, pubMan, err := engine.LoadModel(registry.ModelPath(store, versions[0])); err != nil {
		t.Fatalf("published version does not load: %v", err)
	} else if pubMan.Dataset != "taobao" {
		t.Fatalf("published manifest %+v", pubMan)
	}

	// Resume: a second run warm-started from the checkpoint must succeed
	// and overwrite the artifacts atomically.
	o = trainOpts(filepath.Join(dir, "model2.gob"))
	o.resume = out
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.LoadModel(o.out); err != nil {
		t.Fatal(err)
	}
	// No temp files may be left behind by the atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue // the publish store
		}
		if filepath.Ext(e.Name()) != ".gob" && filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("stray file %s after atomic writes", e.Name())
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	o := trainOpts(filepath.Join(t.TempDir(), "x.gob"))
	o.dataset = "nope"
	if err := run(o); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunBadResume(t *testing.T) {
	dir := t.TempDir()
	o := trainOpts(filepath.Join(dir, "x.gob"))
	o.resume = filepath.Join(dir, "missing.gob")
	if err := run(o); err == nil {
		t.Fatal("missing resume checkpoint accepted")
	}
	if testing.Short() {
		return // the mismatch check below builds the full data pipeline
	}
	// A checkpoint from a different architecture must be rejected, not
	// silently partially loaded.
	other := filepath.Join(dir, "other.gob")
	cfg := core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2, Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
	if err := core.New(cfg).Params().SaveFileAtomic(other); err != nil {
		t.Fatal(err)
	}
	o.resume = other
	if err := run(o); err == nil {
		t.Fatal("mismatched resume checkpoint accepted")
	}
}

// TestTrainObserverCheckpointsAndTotals: the epoch observer writes a
// checkpoint to -out after every ckptEvery-th epoch and totals the guard
// counters for the summary printed after training.
func TestTrainObserverCheckpointsAndTotals(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.gob")
	cfg := core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2, Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
	o := &trainObserver{tel: obs.NewTrainTelemetry(obs.NewRegistry()), w: io.Discard, model: core.New(cfg), out: out, ckptEvery: 2}
	o.ObserveEpoch(rerank.EpochStats{Epoch: 0, Epochs: 4, SkippedInstances: 1})
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("checkpoint after epoch 1 with -checkpoint-every 2: %v", err)
	}
	o.ObserveEpoch(rerank.EpochStats{Epoch: 1, Epochs: 4, DroppedSteps: 2})
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("no checkpoint after epoch 2: %v", err)
	}
	defer f.Close()
	if err := core.New(cfg).Params().LoadStrict(f); err != nil {
		t.Fatalf("checkpoint does not load back: %v", err)
	}
	if o.skipped != 1 || o.dropped != 2 {
		t.Fatalf("guard totals skipped=%d dropped=%d, want 1/2", o.skipped, o.dropped)
	}
}
