package baselines

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

	"repro/internal/nn"
	"repro/internal/rerank"
)

var update = flag.Bool("update", false, "rewrite testdata/fit_bits.golden with the current fit bits")

// writeBits feeds the IEEE-754 bit patterns of vs to h.
func writeBits(h hash.Hash, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestFitBitsGolden pins the trained baselines bit for bit: DLCM, PRM,
// SetRank, SRGA, DESA, Seq2Slate and PD-GAN are each fitted briefly on the
// package fixture (the listwise five and Seq2Slate for 2 epochs, PD-GAN on
// its own schedule), and a SHA-256 over every parameter in registration
// order and then the scores of four held-out instances must match
// testdata/fit_bits.golden. A change that moves any float of a build, a
// fit or a score fails here; refresh deliberately with
//
//	go test ./internal/baselines -run FitBitsGolden -update
//
// The pinned floats are amd64's with math.Exp on its FMA path, so the test
// skips on other architectures and when GODEBUG switches a CPU feature off.
func TestFitBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fit bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("fit bits are pinned with math.Exp on its FMA path; GODEBUG switches a CPU feature off")
	}
	insts := fixture(t, 28)
	train, held := insts[:24], insts[24:]
	dlcm, prm, setrank, srga, desa := NewDLCM(8, 1), NewPRM(8, 2), NewSetRank(8, 3), NewSRGA(8, 4), NewDESA(8, 5)
	for _, cfg := range []*rerank.TrainConfig{&dlcm.TrainCfg, &prm.TrainCfg, &setrank.TrainCfg, &srga.TrainCfg, &desa.TrainCfg} {
		cfg.Epochs = 2
	}
	s2s := NewSeq2Slate(8, 6)
	s2s.TrainCfg.Epochs = 2
	pdgan := NewPDGAN(8, 7)

	var b strings.Builder
	for _, c := range []struct {
		r  rerank.Reranker
		ps func() *nn.ParamSet
	}{
		{dlcm, dlcm.Params},
		{prm, prm.Params},
		{setrank, setrank.Params},
		{srga, srga.Params},
		{desa, desa.Params},
		{s2s, s2s.Params},
		{pdgan, func() *nn.ParamSet { return pdgan.ps }},
	} {
		if err := c.r.(rerank.Trainable).Fit(train); err != nil {
			t.Fatalf("%s: %v", c.r.Name(), err)
		}
		h := sha256.New()
		for _, p := range c.ps().All() {
			writeBits(h, p.Value.Data...)
		}
		for _, inst := range held {
			writeBits(h, c.r.Scores(inst)...)
		}
		fmt.Fprintf(&b, "%s %x\n", c.r.Name(), h.Sum(nil))
	}
	got := b.String()

	path := filepath.Join("testdata", "fit_bits.golden")
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
		t.Fatalf("fit bits changed:\n got:\n%s want:\n%s", got, want)
	}
}
