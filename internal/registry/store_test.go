package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestPublishScanLoadRoundTrip(t *testing.T) {
	root := t.TempDir()
	cfg := testGeometry()
	m := core.New(cfg)
	man := engine.Manifest{Dataset: "test", Lambda: 0.9, Config: cfg}

	label, err := Publish(root, "v1", m.Params(), man)
	if err != nil {
		t.Fatal(err)
	}
	if label != "v1" {
		t.Fatalf("label %q", label)
	}
	versions, err := Scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 || versions[0] != "v1" {
		t.Fatalf("scan %v", versions)
	}
	// The published version must be loadable by the real production loader,
	// not just present on disk.
	loaded, gotMan, err := engine.LoadModel(ModelPath(root, "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if gotMan.Dataset != "test" || gotMan.Config.Hidden != cfg.Hidden {
		t.Fatalf("manifest %+v", gotMan)
	}
	if loaded.Name() == "" {
		t.Fatal("loaded model has no name")
	}
	// No staging residue may survive a successful publish.
	entries, _ := os.ReadDir(root)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("staging residue %s left in root", e.Name())
		}
	}

	// Publishing the same label twice is an error, not an overwrite.
	if _, err := Publish(root, "v1", m.Params(), man); err == nil {
		t.Fatal("duplicate label accepted")
	}
	// An empty label generates distinct timestamped ones even within the same
	// second.
	a, err := Publish(root, "", m.Params(), man)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Publish(root, "", m.Params(), man)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("generated labels collide: %q", a)
	}
	versions, _ = Scan(root)
	if len(versions) != 3 {
		t.Fatalf("scan after publishes: %v", versions)
	}
}

func TestPublishRejectsBadLabels(t *testing.T) {
	root := t.TempDir()
	m := core.New(testGeometry())
	man := engine.Manifest{Config: testGeometry()}
	for _, label := range []string{".hidden", "a/b", `a\b`, "../escape"} {
		if _, err := Publish(root, label, m.Params(), man); err == nil {
			t.Fatalf("label %q accepted", label)
		}
	}
}

func TestValidLabel(t *testing.T) {
	for _, ok := range []string{"v1", "v20250101T000000", "release-2_final.1"} {
		if err := validLabel(ok); err != nil {
			t.Fatalf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".", ".staging-x", "a/b", `a\b`, "../up"} {
		if err := validLabel(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestScanSkipsIncompleteAndHidden(t *testing.T) {
	root := t.TempDir()
	fakeVersionDir(t, root, "complete")

	// Weights without a manifest: not a version.
	noMan := filepath.Join(root, "no-manifest")
	os.MkdirAll(noMan, 0o755)
	os.WriteFile(filepath.Join(noMan, modelFile), []byte("x"), 0o644)
	// Manifest without weights: not a version.
	noModel := filepath.Join(root, "no-model")
	os.MkdirAll(noModel, 0o755)
	os.WriteFile(filepath.Join(noModel, manifestFile), []byte("x"), 0o644)
	// In-flight staging directory: hidden, never listed.
	staging := filepath.Join(root, ".staging-123")
	os.MkdirAll(staging, 0o755)
	os.WriteFile(filepath.Join(staging, modelFile), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(staging, manifestFile), []byte("x"), 0o644)
	// A stray file in the root is not a version either.
	os.WriteFile(filepath.Join(root, "README"), []byte("x"), 0o644)

	versions, err := Scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 || versions[0] != "complete" {
		t.Fatalf("scan %v, want [complete]", versions)
	}
}

func TestScanSortsOldestFirst(t *testing.T) {
	root := t.TempDir()
	for _, l := range []string{"v20250601T000000", "v20240101T000000", "v20250101T000000"} {
		fakeVersionDir(t, root, l)
	}
	versions, err := Scan(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"v20240101T000000", "v20250101T000000", "v20250601T000000"}
	for i := range want {
		if versions[i] != want[i] {
			t.Fatalf("scan %v, want %v", versions, want)
		}
	}
}
