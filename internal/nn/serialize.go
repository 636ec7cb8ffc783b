package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/durable"
)

// snapshot is the on-disk representation of a ParamSet.
type snapshot struct {
	Params []paramRecord
}

type paramRecord struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// Save writes every parameter of s (values only, not optimizer state) to w
// using encoding/gob.
func (s *ParamSet) Save(w io.Writer) error {
	snap := snapshot{}
	for _, p := range s.All() {
		snap.Params = append(snap.Params, paramRecord{
			Name: p.Name,
			Rows: p.Value.Rows,
			Cols: p.Value.Cols,
			Data: append([]float64(nil), p.Value.Data...),
		})
	}
	return gob.NewEncoder(w).Encode(snap)
}

// Load restores parameter values previously written by Save. Every stored
// parameter must exist in s with matching shape; extra parameters in s are
// left untouched (allowing forward-compatible model growth).
func (s *ParamSet) Load(r io.Reader) error {
	return s.load(r, false)
}

// LoadStrict is Load plus a completeness check: every parameter of s must be
// present in the snapshot. A serving process should prefer this — a weights
// file that covers only part of the model would otherwise leave the rest at
// random initialization and serve garbage without any error.
func (s *ParamSet) LoadStrict(r io.Reader) error {
	return s.load(r, true)
}

func (s *ParamSet) load(r io.Reader, strict bool) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decode snapshot: %w", err)
	}
	seen := make(map[string]bool, len(snap.Params))
	for _, rec := range snap.Params {
		p := s.get(rec.Name)
		if p == nil {
			return fmt.Errorf("nn: snapshot has unknown parameter %q", rec.Name)
		}
		if p.Value.Rows != rec.Rows || p.Value.Cols != rec.Cols {
			return fmt.Errorf("nn: parameter %q shape mismatch: model %dx%d, snapshot %dx%d",
				rec.Name, p.Value.Rows, p.Value.Cols, rec.Rows, rec.Cols)
		}
		copy(p.Value.Data, rec.Data)
		seen[rec.Name] = true
	}
	if strict {
		for _, p := range s.All() {
			if !seen[p.Name] {
				return fmt.Errorf("nn: snapshot is missing parameter %q (%dx%d)", p.Name, p.Value.Rows, p.Value.Cols)
			}
		}
	}
	return nil
}

// SaveFileAtomic writes the parameter snapshot to path with durable.WriteFile,
// so a crash or kill mid-write can never leave a truncated or half-written
// checkpoint at path.
func (s *ParamSet) SaveFileAtomic(path string) error {
	return durable.WriteFile(path, s.Save)
}
