package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// assertOnly fails unless dir holds exactly one file, name, with content
// want — in particular no leftover ".tmp-*" file.
func assertOnly(t *testing.T, dir, name, want string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s = %q, want %q", name, got, want)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := WriteFile(path, writeString("old\n")); err != nil {
		t.Fatal(err)
	}
	assertOnly(t, dir, "model.json", "old\n")

	t.Run("failing writer keeps the previous file", func(t *testing.T) {
		boom := errors.New("boom")
		err := WriteFile(path, func(w io.Writer) error {
			io.WriteString(w, "half a new fi")
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the writer's error", err)
		}
		assertOnly(t, dir, "model.json", "old\n")
	})

	t.Run("missing directory keeps the previous file", func(t *testing.T) {
		called := false
		err := WriteFile(filepath.Join(dir, "missing", "model.json"), func(io.Writer) error {
			called = true
			return nil
		})
		if err == nil || called {
			t.Fatalf("write into a missing directory: err = %v, writer called = %v", err, called)
		}
		assertOnly(t, dir, "model.json", "old\n")
	})

	t.Run("successful write replaces the file", func(t *testing.T) {
		if err := WriteFile(path, writeString(strings.Repeat("new\n", 3))); err != nil {
			t.Fatal(err)
		}
		assertOnly(t, dir, "model.json", "new\nnew\nnew\n")
	})
}
