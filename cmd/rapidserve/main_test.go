package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/serve"
)

func TestRunMissingModel(t *testing.T) {
	err := run(context.Background(), filepath.Join(t.TempDir(), "nope.gob"), "127.0.0.1:0", serve.Config{}, nil)
	if err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestRunRegistryEmptyRoot(t *testing.T) {
	err := runRegistry(context.Background(), t.TempDir(), "127.0.0.1:0", serve.Config{}, 5, false, nil, feedbackOpts{})
	if err == nil {
		t.Fatal("empty registry root accepted")
	}
}

// TestRunRegistryStartsAndDrains exercises the versioned deployment shape:
// publish a version, activate it through the registry, serve, shrug off a
// SIGHUP, drain.
func TestRunRegistryStartsAndDrains(t *testing.T) {
	root := t.TempDir()
	cfg := core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2, Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
	m := core.New(cfg)
	if _, err := registry.Publish(root, "v1", m.ParamSet(), engine.Manifest{Dataset: "test", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	// Full feedback wiring: event log, ingest queue and a bandit slice all
	// come up and drain with the server.
	fb := feedbackOpts{
		dir: filepath.Join(root, "feedback"), segmentMB: 1, maxSegments: 4,
		banditPct: 10, arms: "mmr@0.2,mmr@0.8", segments: 2,
	}
	go func() {
		errc <- runRegistry(ctx, root, "127.0.0.1:0", serve.Config{DrainTimeout: time.Second}, 5, true, nil, fb)
	}()
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("runRegistry: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runRegistry did not drain after cancel")
	}
	if _, err := os.Stat(filepath.Join(root, "feedback", "seg-000000000001.flog")); err != nil {
		t.Fatalf("feedback log was not created/committed: %v", err)
	}
}

// TestRunStartsAndDrains exercises the full startup path — manifest decode,
// geometry validation, strict weight load — and the signal-driven drain.
func TestRunStartsAndDrains(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	cfg := core.Config{
		UserDim: 3, ItemDim: 2, Topics: 2, Hidden: 4, D: 3,
		Output: core.Probabilistic, Encoder: core.BiLSTMEncoder, Agg: core.LSTMAgg,
		UseDiversity: true, Heads: 2, Seed: 1,
	}
	m := core.New(cfg)
	if err := m.ParamSet().SaveFileAtomic(modelPath); err != nil {
		t.Fatal(err)
	}
	man, err := json.Marshal(engine.Manifest{Dataset: "test", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(engine.ManifestPath(modelPath), man, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, modelPath, "127.0.0.1:0", serve.Config{DrainTimeout: time.Second}, nil)
	}()
	// Give the listener a moment to come up, then simulate SIGTERM.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not drain after cancel")
	}
}
