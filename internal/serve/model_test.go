package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func writeArtifacts(t *testing.T, modelCfg core.Config, manCfg core.Config) string {
	t.Helper()
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	m := core.New(modelCfg)
	if err := m.ParamSet().SaveFileAtomic(modelPath); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(engine.Manifest{Dataset: "test", Config: manCfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(engine.ManifestPath(modelPath), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return modelPath
}

// TestLoadModelCorruptArtifacts covers the ways a weights file goes bad on
// real disks — truncation mid-write, zero-byte files from a crashed create,
// bit rot past the header — and requires a descriptive startup error for
// each, never a panic or a silently half-loaded model.
func TestLoadModelCorruptArtifacts(t *testing.T) {
	cfg := testConfig()
	path := writeArtifacts(t, cfg, cfg)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("zero-byte weights", func(t *testing.T) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.LoadModel(path); err == nil {
			t.Fatal("zero-byte weights accepted")
		}
	})
	// Truncation at any point — inside the gob header, mid-stream, and one
	// byte short of complete — must fail cleanly.
	for _, frac := range []float64{0.01, 0.5, 0.95} {
		cut := int(float64(len(whole)) * frac)
		t.Run(fmt.Sprintf("truncated at %d/%d bytes", cut, len(whole)), func(t *testing.T) {
			if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := engine.LoadModel(path); err == nil {
				t.Fatal("truncated weights accepted")
			}
		})
	}
	t.Run("truncated by one byte", func(t *testing.T) {
		if err := os.WriteFile(path, whole[:len(whole)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.LoadModel(path); err == nil {
			t.Fatal("almost-complete weights accepted")
		}
	})
	t.Run("zero-byte manifest", func(t *testing.T) {
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engine.ManifestPath(path), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.LoadModel(path); err == nil {
			t.Fatal("zero-byte manifest accepted")
		}
	})
}
