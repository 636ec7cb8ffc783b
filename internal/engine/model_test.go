package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func writeArtifacts(t *testing.T, modelCfg core.Config, manCfg core.Config) string {
	t.Helper()
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	m := core.New(modelCfg)
	if err := m.Params().SaveFileAtomic(modelPath); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Manifest{Dataset: "test", Config: manCfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ManifestPath(modelPath), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return modelPath
}

func TestLoadModelRoundTrip(t *testing.T) {
	cfg := testConfig()
	path := writeArtifacts(t, cfg, cfg)
	m, man, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Dataset != "test" || m.Cfg.Topics != cfg.Topics {
		t.Fatalf("loaded %+v", man)
	}
	inst, err := ToInstance(cfg, validRequest())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Scores(inst); len(got) != 3 {
		t.Fatalf("scores %v", got)
	}
}

// TestLoadModelGeometryMismatch: weights written for one architecture must
// be rejected at startup when the manifest claims another — with an error
// naming the disagreement, not a panic at the first request.
func TestLoadModelGeometryMismatch(t *testing.T) {
	small := testConfig()
	big := small
	big.Hidden = 8 // shapes disagree with the saved weights
	path := writeArtifacts(t, small, big)
	if _, _, err := LoadModel(path); err == nil {
		t.Fatal("shape mismatch accepted")
	}

	// Weights that cover only part of the model (trained without the
	// diversity head) must also fail strictly, not serve random weights.
	noDiv := testConfig()
	noDiv.UseDiversity = false
	full := testConfig()
	path = writeArtifacts(t, noDiv, full)
	if _, _, err := LoadModel(path); err == nil {
		t.Fatal("partial weights accepted")
	}
}

func TestLoadModelInvalidManifest(t *testing.T) {
	cfg := testConfig()
	for name, mutate := range map[string]func(*core.Config){
		"zero hidden":       func(c *core.Config) { c.Hidden = 0 },
		"negative topics":   func(c *core.Config) { c.Topics = -1 },
		"zero user dim":     func(c *core.Config) { c.UserDim = 0 },
		"zero item dim":     func(c *core.Config) { c.ItemDim = 0 },
		"zero D":            func(c *core.Config) { c.D = 0 },
		"bad output":        func(c *core.Config) { c.Output = 99 },
		"bad encoder":       func(c *core.Config) { c.Encoder = 99 },
		"bad agg":           func(c *core.Config) { c.Agg = 99 },
		"bad diversity fn":  func(c *core.Config) { c.DiversityFn = "nope" },
		"transformer heads": func(c *core.Config) { c.Encoder = core.TransformerEncoder; c.Heads = 0 },
	} {
		bad := cfg
		mutate(&bad)
		if err := ValidateConfig(bad); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	if err := ValidateConfig(cfg); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	// A syntactically valid manifest with an unbuildable config must fail at
	// LoadModel time.
	bad := cfg
	bad.Hidden = 0
	path := writeArtifacts(t, cfg, bad)
	if _, _, err := LoadModel(path); err == nil {
		t.Fatal("unbuildable manifest accepted")
	}
}

func TestLoadModelMissingFiles(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadModel(filepath.Join(dir, "none.gob")); err == nil {
		t.Fatal("missing manifest accepted")
	}
	// Manifest present, weights missing.
	cfg := testConfig()
	modelPath := filepath.Join(dir, "model.gob")
	b, _ := json.Marshal(Manifest{Config: cfg})
	if err := os.WriteFile(ManifestPath(modelPath), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadModel(modelPath); err == nil {
		t.Fatal("missing weights accepted")
	}
	// Corrupt weights.
	if err := os.WriteFile(modelPath, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadModel(modelPath); err == nil {
		t.Fatal("corrupt weights accepted")
	}
}

// TestLoadModelErrorsAreDescriptive pins the operator experience: each
// failure class must name what disagreed — the file, the parameter or the
// dimension — because "load failed" at 3am is not actionable.
func TestLoadModelErrorsAreDescriptive(t *testing.T) {
	small := testConfig()
	big := small
	big.Hidden = 8
	path := writeArtifacts(t, small, big)
	_, _, err := LoadModel(path)
	if err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// The error must name the disagreeing parameter and both shapes.
	for _, want := range []string{"manifest", "shape mismatch", "parameter", "snapshot"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q does not mention %q", err, want)
		}
	}

	cfg := testConfig()
	path = writeArtifacts(t, cfg, cfg)
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadModel(path)
	if err == nil {
		t.Fatal("empty weights accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("corruption error %q does not name the file", err)
	}

	bad := cfg
	bad.Topics = -3
	path = writeArtifacts(t, cfg, bad)
	_, _, err = LoadModel(path)
	if err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if !strings.Contains(err.Error(), "Topics") {
		t.Fatalf("geometry error %q does not name the bad dimension", err)
	}
}
