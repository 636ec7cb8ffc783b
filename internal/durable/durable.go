// Package durable is the one crash-safe file commit the module uses: a
// file is replaced only by a complete, fsynced copy, and the rename that
// replaces it is itself fsynced, so after a crash a reader sees either the
// old content or the new, never a torn write.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile commits path: write fills a temporary file beside it, which is
// fsynced, closed, renamed over path, and the directory is fsynced so the
// rename survives a crash. On any failure the temporary file is removed and
// path keeps its previous content.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: temp file for %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("durable: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: commit %s: %w", path, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a rename or file creation in it survives a
// crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return nil
}
