package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/durable"
	"repro/internal/topics"
)

// MaxDim caps every geometry dimension a manifest may declare. The paper's
// grid tops out at hidden size 64 and 23 topics; a five-digit dimension is a
// corrupt or hostile manifest, and building it would allocate gigabytes
// before the weights load could fail. Startup is the place to reject it.
const MaxDim = 4096

// Manifest describes a saved model so a server can rebuild the architecture
// before loading weights. rapidtrain writes it alongside the weights file;
// rapidserve reads it back. Metrics carries the training run's held-out
// evaluation for operator sanity checks.
type Manifest struct {
	Dataset string             `json:"dataset"`
	Lambda  float64            `json:"lambda"`
	Config  core.Config        `json:"config"`
	Metrics map[string]float64 `json:"Metrics,omitempty"`

	// Diversifier, when non-empty, marks a weightless version: instead of
	// loading model weights the server instantiates the named classic
	// diversifier (internal/diversify) at DiversifierLambda. The Config
	// geometry still describes the surface the version serves, so warm-up
	// validation and request shaping work unchanged.
	Diversifier       string  `json:"diversifier,omitempty"`
	DiversifierLambda float64 `json:"diversifier_lambda,omitempty"`
}

// ManifestPath derives the manifest's path from the weights path
// (model.gob → model.json).
func ManifestPath(modelPath string) string {
	return strings.TrimSuffix(modelPath, ".gob") + ".json"
}

// ValidateConfig rejects a manifest config the model constructor would
// panic on or that could never describe a servable model. Startup is the
// place to fail: a bad geometry discovered at the first request takes the
// serving chain down with it.
func ValidateConfig(cfg core.Config) error {
	switch {
	case cfg.UserDim <= 0:
		return fmt.Errorf("UserDim %d must be positive", cfg.UserDim)
	case cfg.ItemDim <= 0:
		return fmt.Errorf("ItemDim %d must be positive", cfg.ItemDim)
	case cfg.Topics <= 0:
		return fmt.Errorf("Topics %d must be positive", cfg.Topics)
	case cfg.Hidden <= 0:
		return fmt.Errorf("Hidden %d must be positive", cfg.Hidden)
	case cfg.D <= 0:
		return fmt.Errorf("D %d must be positive", cfg.D)
	case cfg.UserDim > MaxDim, cfg.ItemDim > MaxDim, cfg.Topics > MaxDim,
		cfg.Hidden > MaxDim, cfg.D > MaxDim:
		return fmt.Errorf("geometry (%d,%d,%d,%d,%d) exceeds the %d dimension cap",
			cfg.UserDim, cfg.ItemDim, cfg.Topics, cfg.Hidden, cfg.D, MaxDim)
	}
	if cfg.Output != core.Deterministic && cfg.Output != core.Probabilistic {
		return fmt.Errorf("unknown output mode %d", cfg.Output)
	}
	if cfg.Encoder != core.BiLSTMEncoder && cfg.Encoder != core.TransformerEncoder {
		return fmt.Errorf("unknown list encoder %d", cfg.Encoder)
	}
	if cfg.Agg != core.LSTMAgg && cfg.Agg != core.MeanAgg {
		return fmt.Errorf("unknown topic aggregator %d", cfg.Agg)
	}
	if cfg.Encoder == core.TransformerEncoder && cfg.Heads <= 0 {
		return fmt.Errorf("transformer encoder needs Heads > 0, got %d", cfg.Heads)
	}
	if _, err := topics.DiversityFunctionByName(cfg.DiversityFn); err != nil {
		return err
	}
	return nil
}

// LoadModel reads the manifest next to modelPath, validates its geometry,
// rebuilds the architecture and loads the weights strictly: every model
// parameter must be present in the weights file with a matching shape. Any
// disagreement between weights and manifest is a startup error with the
// offending parameter named — never a panic (or silently random weights) at
// the first request.
func LoadModel(modelPath string) (*core.Model, Manifest, error) {
	mf, err := os.Open(ManifestPath(modelPath))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("open manifest: %w", err)
	}
	defer mf.Close()
	man, err := DecodeManifest(mf)
	if err != nil {
		return nil, man, fmt.Errorf("manifest %s: %w", ManifestPath(modelPath), err)
	}
	m, err := buildModel(man.Config)
	if err != nil {
		return nil, man, err
	}
	wf, err := os.Open(modelPath)
	if err != nil {
		return nil, man, fmt.Errorf("open model: %w", err)
	}
	defer wf.Close()
	if err := m.ParamSet().LoadStrict(wf); err != nil {
		return nil, man, fmt.Errorf("weights %s disagree with manifest config: %w", modelPath, err)
	}
	return m, man, nil
}

// DecodeManifest is the manifest parsing stage LoadModel runs before
// touching any weights: JSON decode plus geometry validation. It is split
// out so the fuzz harness (FuzzManifest) can drive arbitrary bytes through
// exactly the code a hostile manifest would reach, without building models.
func DecodeManifest(r io.Reader) (Manifest, error) {
	var man Manifest
	if err := json.NewDecoder(r).Decode(&man); err != nil {
		return man, fmt.Errorf("decode manifest: %w", err)
	}
	if err := ValidateConfig(man.Config); err != nil {
		return man, fmt.Errorf("invalid model config: %w", err)
	}
	if man.Diversifier != "" && !diversify.Known(man.Diversifier) {
		return man, fmt.Errorf("unknown diversifier %q", man.Diversifier)
	}
	return man, nil
}

// ReadManifest reads and validates the manifest next to modelPath without
// touching weights — callers that only need the declared geometry (publishing
// a diversifier version for an existing surface) stop here.
func ReadManifest(modelPath string) (Manifest, error) {
	mf, err := os.Open(ManifestPath(modelPath))
	if err != nil {
		return Manifest{}, fmt.Errorf("open manifest: %w", err)
	}
	defer mf.Close()
	man, err := DecodeManifest(mf)
	if err != nil {
		return man, fmt.Errorf("manifest %s: %w", ManifestPath(modelPath), err)
	}
	return man, nil
}

// LoadScorer is the version-agnostic load path the registry uses: it reads
// the manifest and returns either the neural model (LoadModel) or, when the
// manifest names a diversifier, the weightless diversify adapter. Both come
// back behind the same Scorer seam, so everything downstream — warm-up,
// canary, shadow, batching, metrics — treats a classic heuristic exactly
// like a learned model version.
func LoadScorer(modelPath string) (Scorer, Manifest, error) {
	man, err := ReadManifest(modelPath)
	if err != nil {
		return nil, man, err
	}
	if man.Diversifier != "" {
		ds, err := diversify.NewScorer(man.Diversifier, man.DiversifierLambda)
		if err != nil {
			return nil, man, err
		}
		return ds, man, nil
	}
	m, man, err := LoadModel(modelPath)
	if err != nil {
		return nil, man, err
	}
	return m, man, nil
}

// WriteManifestFileAtomic writes a manifest with durable.WriteFile, as the
// weights are written: the (weights, manifest) pair on disk is only ever
// replaced by a complete file, never observed half-written by a concurrently
// starting server. rapidtrain and the registry store both publish through
// this.
func WriteManifestFileAtomic(path string, man Manifest) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
}

// buildModel constructs the architecture, converting any constructor panic
// (core.New panics on configs it cannot build) into an error.
func buildModel(cfg core.Config) (m *core.Model, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("build model from manifest config: %v", p)
		}
	}()
	return core.New(cfg), nil
}
