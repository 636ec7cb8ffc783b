package main

import (
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// quietSlice is a slice as a steady host would produce it; hostFactor
// stretches everything the host's speed stretches — the kernel and the
// workload alike — and leaves the allocation count alone.
func quietSlice(hostFactor, jitter float64) slice {
	const kernelMS = refNominalMS * 0.6 // so a 3× slower host is still within the validity limit
	return slice{
		refBefore: kernelMS * hostFactor,
		refAfter:  kernelMS * hostFactor,
		wallS:     0.5,
		lists:     int(1000 / hostFactor),
		p50MS:     0.45 * hostFactor * jitter,
		p90MS:     0.70 * hostFactor * jitter,
		p99MS:     0.90 * hostFactor * jitter,
		cpuMS:     600 * jitter, // the CPU is as busy; it just gets less done
		mallocs:   uint64(310 * int(1000/hostFactor)),
	}
}

func TestNormalisationCancelsHostSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var steady, varying []slice
	for i := 0; i < measuredSlices; i++ {
		jitter := 1 + 0.004*(rng.Float64()-0.5)
		steady = append(steady, quietSlice(1, jitter))
		varying = append(varying, quietSlice(0.7+2.3*rng.Float64(), jitter))
	}
	want, got := summarise(steady), summarise(varying)
	for _, name := range []string{"latency_p50_ms", "latency_p90_ms", "latency_p99_ms", "throughput_lists_per_s", "cpu_ms_per_list", "allocs_per_list"} {
		if rel := math.Abs(got[name].Value-want[name].Value) / want[name].Value; rel > 0.01 {
			t.Errorf("%s: %.4f on a host varying 0.7–3×, %.4f on a steady one (%.1f%% apart)", name, got[name].Value, want[name].Value, 100*rel)
		}
		if got[name].Samples != measuredSlices {
			t.Errorf("%s: %d samples, want %d", name, got[name].Samples, measuredSlices)
		}
	}
	// Without normalisation the same slices disagree, or the test proves nothing.
	if rel := math.Abs(got["latency_p50_ms"].Raw-want["latency_p50_ms"].Raw) / want["latency_p50_ms"].Raw; rel < 0.2 {
		t.Errorf("raw p50 differs by only %.1f%%: the synthetic host does not vary", 100*rel)
	}
}

// A latency that contains a wall-clock window the benchmark configured keeps
// the window and scales the rest.
func TestWaitWindowIsNotScaled(t *testing.T) {
	var got []float64
	for _, host := range []float64{1, 1.5, 2.5} {
		s := quietSlice(host, 1)
		s.waitMS = 2
		s.p99MS = 2 + 1.1*host // a full window, then 1.1 ms of work at this host's pace
		got = append(got, s.atRef(s.p99MS), s.atRef(s.p50MS)/s.atRef(0.45*host))
	}
	for i := 2; i < len(got); i += 2 {
		if math.Abs(got[i]-got[0]) > 1e-9 || got[i+1] != 1 {
			t.Errorf("p99 at reference speed %v, want the same on every host; the median below the window must scale as ever", got)
		}
	}
}

func TestCollectSlicesDropsStalledSlices(t *testing.T) {
	// The kernel runs before the first slice and after each: the third run
	// is a stall, which spoils the two slices it brackets.
	refs := []float64{5, 5, 3 * refNominalMS, 5, 5, 5, 5}
	i := 0
	ref := func() float64 { i++; return refs[i-1] }
	n := 0
	kept, taken := collectSlices(4, 100, ref, func() slice { n++; return slice{wallS: 0.5, lists: n} })
	if taken != 6 || len(kept) != 4 {
		t.Fatalf("took %d slices and kept %d, want 6 and 4", taken, len(kept))
	}
	for j, want := range []int{1, 4, 5, 6} {
		if kept[j].lists != want {
			t.Errorf("kept slice %d is measurement %d, want %d", j, kept[j].lists, want)
		}
	}
}

func TestCollectSlicesStopsAtCap(t *testing.T) {
	stalled := func() float64 { return 3 * refNominalMS }
	kept, taken := collectSlices(60, 45, stalled, func() slice { return slice{wallS: 0.5} })
	if len(kept) != 0 || taken != 90 {
		t.Fatalf("on a host that never recovers: kept %d, took %d; want 0 and 90 (45 s of 0.5 s slices)", len(kept), taken)
	}
	// A run that collects some valid slices before the cap reports from those.
	i := 0
	sometimes := func() float64 {
		i++
		if i%4 == 0 {
			return 3 * refNominalMS
		}
		return 5
	}
	kept, taken = collectSlices(60, 45, sometimes, func() slice { return slice{wallS: 0.5} })
	if taken != 90 || len(kept) == 0 || len(kept) >= 60 {
		t.Fatalf("kept %d of %d, want some but fewer than 60 of 90", len(kept), taken)
	}
}

func TestPercentileAndSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(xs, 0.99); p != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", p)
	}
	if p := percentile(xs, 0.50); p != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
}

// The reference kernel is the yardstick: it may not move when the code under
// test moves, so it may not import it.
func TestRefKernelImportsNothingInternal(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "refkernel.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if strings.Contains(imp.Path.Value, "repro") {
			t.Errorf("refkernel.go imports %s", imp.Path.Value)
		}
	}
}
