package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rerank"
)

// TestScoreBitsGolden pins inference numerics bit for bit: for RAPID-pro
// and RAPID-det, each with LSTM and mean topic aggregation, a Bi-LSTM and a
// transformer list encoder, and each of the three diversity functions, a
// SHA-256 over the scores of six 20-item lists with soft topic coverage,
// scored cold (Score, the preference pass inline) and warm
// (ScoreBatchStates with each list's encoded state supplied). A change that moves any float of the serving
// forward — the marginal-diversity table included — fails here; refresh
// deliberately with
//
//	go test ./internal/core -run ScoreBitsGolden -update
//
// The pinned floats are amd64's with math.Exp on its FMA path, so the test
// skips on other architectures and when GODEBUG switches a CPU feature off.
func TestScoreBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("score bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("score bits are pinned with math.Exp on its FMA path; GODEBUG switches a CPU feature off")
	}
	insts, d := fixtureLen(t, 6, 151, 20)
	// The fixture's covers are one-hot, on which facility location's
	// marginal equals probabilistic coverage's; soft covers tell the three
	// functions apart.
	rng := rand.New(rand.NewSource(153))
	for _, inst := range insts {
		for i := range inst.Cover {
			tau := make([]float64, d.M())
			for j := range tau {
				tau[j] = rng.Float64()
			}
			inst.Cover[i] = tau
		}
	}
	ctx := context.Background()
	var b strings.Builder
	for _, out := range []OutputMode{Probabilistic, Deterministic} {
		for _, agg := range []TopicAgg{LSTMAgg, MeanAgg} {
			for _, enc := range []ListEncoder{BiLSTMEncoder, TransformerEncoder} {
				for _, fn := range []string{"prob-coverage", "saturated-coverage", "facility-location"} {
					cfg := testConfig(d, 152)
					cfg.Output, cfg.Agg, cfg.Encoder, cfg.DiversityFn = out, agg, enc, fn
					m := New(cfg)
					cold, warm := sha256.New(), sha256.New()
					for _, inst := range insts {
						scores, err := m.Score(ctx, inst)
						if err != nil {
							t.Fatal(err)
						}
						writeBits(cold, scores...)
						st, err := m.EncodeUserState(ctx, inst)
						if err != nil {
							t.Fatal(err)
						}
						batch, _, err := m.ScoreBatchStates(ctx, []*rerank.Instance{inst}, []*UserState{st})
						if err != nil {
							t.Fatal(err)
						}
						writeBits(warm, batch[0]...)
					}
					fmt.Fprintf(&b, "output=%d agg=%d encoder=%d %s cold %x warm %x\n",
						out, agg, enc, fn, cold.Sum(nil), warm.Sum(nil))
				}
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "score_bits.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("inference bits changed:\n got:\n%s want:\n%s", got, want)
	}
}
