package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rerank"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens with the current bits")

// writeBits feeds the IEEE-754 bit patterns of vs to h.
func writeBits(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestTrainBitsGolden pins training numerics bit for bit: RAPID-pro and
// RAPID-det, trained for two epochs on 20-item lists at one and at two
// workers, must reproduce a SHA-256 over every epoch loss and then every
// parameter value (registration order). A change that moves any float of
// the training path — a kernel's summation order, a transcendental, the
// graph's gradient accumulation order — fails here; refresh deliberately
// with
//
//	go test ./internal/core -run TrainBitsGolden -update
//
// The pinned floats are amd64's: other architectures may fuse multiply-adds
// and run assembly transcendentals, so the test skips there.
func TestTrainBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("training bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	train, d := fixtureLen(t, 12, 141, 20)
	var b strings.Builder
	for _, out := range []OutputMode{Probabilistic, Deterministic} {
		for _, workers := range []int{1, 2} {
			cfg := DefaultConfig(d.Cfg.UserDim, d.Cfg.ItemDim, d.M(), 142)
			cfg.Output = out
			m := New(cfg)
			h := sha256.New()
			m.TrainCfg = rerank.TrainConfig{
				Epochs: 2, LR: 0.01, BatchSize: 4, ClipNorm: 5, Seed: 143, Workers: workers,
				Observer: observeFunc(func(es rerank.EpochStats) { writeBits(h, es.Loss) }),
			}
			if err := m.Fit(train); err != nil {
				t.Fatalf("%s workers=%d: %v", m.Name(), workers, err)
			}
			for _, p := range m.Params().All() {
				writeBits(h, p.Value.Data...)
			}
			fmt.Fprintf(&b, "%s workers=%d %x\n", m.Name(), workers, h.Sum(nil))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "train_bits.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("training bits changed:\n got:\n%s want:\n%s", got, want)
	}
}
