// Package registry is the model lifecycle subsystem: a versioned on-disk
// model store, an in-memory registry that hot-swaps loaded versions behind
// one atomic pointer, and the promotion pipeline that takes a version from
// "published by rapidtrain" to "serving live traffic" — load, warm-up
// validation against a golden request set, canary evaluation on a
// deterministic traffic fraction, then promote or (auto-)rollback. A shadow
// mode scores the candidate asynchronously off the request path and records
// its divergence from the active model without affecting responses.
//
// The registry implements engine.Provider, so the serving layer stays a pure
// data plane: it pins one coherent (model, manifest, version) triple per
// request from a single atomic snapshot and never blocks on lifecycle
// operations. Lifecycle mutations (load, promote, rollback) serialize on a
// mutex and publish a fresh immutable state value; scoring only ever loads
// the pointer.
package registry

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/nn"
)

// File names inside one version directory. A version is committed iff both
// files exist; the directory itself appears atomically (staging + rename),
// so a concurrent scan never observes a half-written version.
const (
	modelFile    = "model.gob"
	manifestFile = "model.json"
)

// ModelPath is the weights path of one version inside a store root.
func ModelPath(root, version string) string {
	return filepath.Join(root, version, modelFile)
}

// validLabel rejects version labels that could escape the store root or
// collide with staging directories. Labels are path components chosen by
// operators and admin API callers — they must never be trusted as paths.
func validLabel(label string) error {
	switch {
	case label == "":
		return fmt.Errorf("empty version label")
	case strings.HasPrefix(label, "."):
		return fmt.Errorf("version label %q may not start with '.'", label)
	case strings.ContainsAny(label, `/\`):
		return fmt.Errorf("version label %q may not contain path separators", label)
	}
	return nil
}

// Publish writes a trained model and its manifest into a fresh version
// directory under root and commits it atomically: the files are written and
// fsynced inside a hidden staging directory, the staging directory is
// fsynced, renamed to its final name, and the root directory is fsynced so
// the rename itself survives a crash. A concurrently scanning or loading
// server either sees the complete version or nothing. An empty label
// generates a UTC-timestamped one (v20060102T150405, suffixed on collision).
func Publish(root, label string, ps *nn.ParamSet, man engine.Manifest) (string, error) {
	return publishStaged(root, label, man, func(staging string) error {
		return ps.SaveFileAtomic(filepath.Join(staging, modelFile))
	})
}

// PublishDiversifier commits a weightless classic-diversifier version: the
// manifest must name a registered diversifier (engine.LoadScorer then builds
// the diversify adapter instead of reading weights), and ModelFile is written
// as a placeholder so the commit protocol — and every scanner that treats
// "both files exist" as the commit marker — stays identical to a neural
// version. The manifest's Config still describes the surface geometry so
// warm-up validation and request shaping work unchanged.
func PublishDiversifier(root, label string, man engine.Manifest) (string, error) {
	if man.Diversifier == "" {
		return "", fmt.Errorf("registry: manifest names no diversifier")
	}
	return publishStaged(root, label, man, func(staging string) error {
		placeholder := []byte("diversifier:" + man.Diversifier + "\n")
		return writeFileSync(filepath.Join(staging, modelFile), placeholder)
	})
}

// DiversifierManifest builds the manifest of a weightless version serving
// the named diversifier at lambda: the newest version under root supplies
// the surface geometry, and metrics replaces the donor's training metrics.
// It also returns the committed versions it scanned, oldest first.
func DiversifierManifest(root, name string, lambda float64, metrics map[string]float64) (engine.Manifest, []string, error) {
	versions, err := Scan(root)
	if err != nil {
		return engine.Manifest{}, nil, err
	}
	if len(versions) == 0 {
		return engine.Manifest{}, nil, fmt.Errorf("registry: no published versions in %s to copy geometry from", root)
	}
	man, err := engine.ReadManifest(ModelPath(root, versions[len(versions)-1]))
	if err != nil {
		return engine.Manifest{}, nil, err
	}
	man.Diversifier = name
	man.DiversifierLambda = lambda
	man.Metrics = metrics
	return man, versions, nil
}

// publishStaged is the shared atomic commit discipline: write the version's
// artifacts inside a hidden staging directory, fsync it, rename it to the
// final label, fsync the root so the rename survives a crash.
func publishStaged(root, label string, man engine.Manifest, writeModel func(staging string) error) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("registry: create root: %w", err)
	}
	if label == "" {
		label = nextLabel(root)
	} else if err := validLabel(label); err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	final := filepath.Join(root, label)
	if _, err := os.Stat(final); err == nil {
		return "", fmt.Errorf("registry: version %s already exists in %s", label, root)
	}

	staging, err := os.MkdirTemp(root, ".staging-*")
	if err != nil {
		return "", fmt.Errorf("registry: staging dir: %w", err)
	}
	defer os.RemoveAll(staging) // no-op after the rename succeeds

	if err := writeModel(staging); err != nil {
		return "", err
	}
	if err := engine.WriteManifestFileAtomic(filepath.Join(staging, manifestFile), man); err != nil {
		return "", err
	}
	if err := durable.SyncDir(staging); err != nil {
		return "", err
	}
	if err := os.Rename(staging, final); err != nil {
		return "", fmt.Errorf("registry: commit version %s: %w", label, err)
	}
	if err := durable.SyncDir(root); err != nil {
		return "", err
	}
	return label, nil
}

// writeFileSync commits a small artifact with durable.WriteFile.
func writeFileSync(path string, data []byte) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// nextLabel generates a fresh timestamped label, suffixing a counter when
// two publishes land within the same second.
func nextLabel(root string) string {
	base := "v" + time.Now().UTC().Format("20060102T150405")
	label := base
	for i := 2; ; i++ {
		if _, err := os.Stat(filepath.Join(root, label)); os.IsNotExist(err) {
			return label
		}
		label = fmt.Sprintf("%s-%d", base, i)
	}
}

// Scan lists the committed versions under root, sorted lexicographically
// (timestamped labels therefore sort oldest-first). Hidden entries — which
// include in-flight staging directories — and directories missing either
// artifact are skipped: they are not versions yet.
func Scan(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("registry: scan %s: %w", root, err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, e.Name(), modelFile)); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(root, e.Name(), manifestFile)); err != nil {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}
