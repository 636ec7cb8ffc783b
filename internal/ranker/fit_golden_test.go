package ranker

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

	"repro/internal/dataset"
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

// writeTree feeds a regression tree to h in preorder: each node's leaf
// flag, split feature, threshold and leaf value.
func writeTree(h hash.Hash, t *regTree) {
	leaf := 0.0
	if t.leaf {
		leaf = 1
	}
	writeBits(h, leaf, float64(t.feature), t.threshold, t.value)
	if !t.leaf {
		writeTree(h, t.left)
		writeTree(h, t.right)
	}
}

// TestFitBitsGolden pins the three initial rankers' training bit for bit:
// each is fitted briefly on a small TaobaoLike dataset, and a SHA-256 over
// every learned number (DIN's parameters in registration order, SVMRank's
// weights, LambdaMART's trees in preorder) and then the scores of the
// first test pool's candidates must match testdata/fit_bits.golden. A
// change that moves any float of a fit or a score fails here; refresh
// deliberately with
//
//	go test ./internal/ranker -run FitBitsGolden -update
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
	din, d := fittedDIN(t, dataset.TaobaoLike(21))
	svm := NewSVMRank(22)
	svm.Epochs = 2
	lm := NewLambdaMART()
	lm.Trees = 5
	for _, r := range []Ranker{svm, lm} {
		if err := r.Fit(d); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
	}
	var b strings.Builder
	for _, c := range []struct {
		r     Ranker
		learn func(h hash.Hash)
	}{
		{din, func(h hash.Hash) {
			for _, p := range din.ps.All() {
				writeBits(h, p.Value.Data...)
			}
		}},
		{svm, func(h hash.Hash) { writeBits(h, svm.w...) }},
		{lm, func(h hash.Hash) {
			writeBits(h, lm.baseScore)
			for _, tree := range lm.ensemble {
				writeTree(h, tree)
			}
		}},
	} {
		h := sha256.New()
		c.learn(h)
		p := d.TestPools[0]
		for _, v := range p.Candidates {
			writeBits(h, c.r.Score(d, p.User, v))
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
