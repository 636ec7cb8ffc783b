package mat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// forceParallel lowers the size cutoff and minimum panel to zero/one and
// sets the worker knob so every kernel call in the test body takes the
// parallel dispatch path, then restores the package state. Tests using it
// must not run in parallel with each other (the knob and cutoff are package
// globals).
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	oldCutoff, oldPanel := parCutoff, minPanel
	parCutoff, minPanel = 0, 1
	SetWorkers(workers)
	t.Cleanup(func() {
		parCutoff, minPanel = oldCutoff, oldPanel
		SetWorkers(1)
	})
}

// parallelShapes are the panel-partitioning edge cases: single row (column
// split), single column, tall-skinny, wide, and non-multiples of any block
// or worker count.
var parallelShapes = [][3]int{
	{1, 1, 1}, {1, 7, 33}, {1, 64, 128}, // 1×N: row axis unsplittable
	{33, 1, 1}, {128, 8, 1}, // N×1: column axis unsplittable
	{257, 5, 3}, {1000, 8, 8}, // tall-skinny
	{3, 5, 257},                            // short-wide
	{7, 13, 3}, {16, 17, 16}, {31, 33, 29}, // odd, non-multiple-of-block
	{64, 64, 64},
}

// TestParallelMatMulBitwise: the parallel MatMulInto must be bitwise equal
// to the serial kernel for every worker count and shape — the panel split
// never changes any element's accumulation order.
func TestParallelMatMulBitwise(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 7, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			forceParallel(t, workers)
			rng := rand.New(rand.NewSource(21))
			for _, dims := range parallelShapes {
				r, k, c := dims[0], dims[1], dims[2]
				a := RandNormal(r, k, 0, 1, rng)
				b := RandNormal(k, c, 0, 1, rng)
				want := New(r, c)
				matMulPanel(want, a, b, 0, r, 0, c) // serial reference
				got := New(r, c)
				MatMulInto(got, a, b)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%v: element %d differs: %g vs %g", dims, i, got.Data[i], want.Data[i])
					}
				}
				if naive := naiveMatMul(a, b); !got.EqualApprox(naive, 1e-9) {
					t.Fatalf("%v: diverges from naive reference", dims)
				}
			}
		})
	}
}

// TestParallelAddMatMulABTBitwise covers the fused-transpose accumulate
// kernel across worker counts, including its column-split path (1×N).
func TestParallelAddMatMulABTBitwise(t *testing.T) {
	for _, workers := range []int{2, 3, 5, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			forceParallel(t, workers)
			rng := rand.New(rand.NewSource(22))
			for _, dims := range [][3]int{{1, 6, 33}, {33, 6, 1}, {257, 5, 3}, {3, 5, 257}, {31, 33, 29}, {64, 64, 64}} {
				r, c, k := dims[0], dims[1], dims[2]
				a := RandNormal(r, c, 0, 1, rng)
				b := RandNormal(k, c, 0, 1, rng)
				seed := RandNormal(r, k, 0, 1, rng) // kernel must accumulate into it
				want := seed.Clone()
				addMatMulABTPanel(want, a, b, 0, r, 0, k)
				got := seed.Clone()
				AddMatMulABT(got, a, b)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%v: element %d differs", dims, i)
					}
				}
			}
		})
	}
}

// TestParallelAddMatMulATBBitwise covers the aᵀ·b accumulate kernel: its
// panels band the output rows (= a's columns) while keeping the row scan
// ascending inside each band.
func TestParallelAddMatMulATBBitwise(t *testing.T) {
	for _, workers := range []int{2, 3, 5, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			forceParallel(t, workers)
			rng := rand.New(rand.NewSource(23))
			for _, dims := range [][3]int{{1, 33, 6}, {33, 1, 6}, {257, 5, 3}, {5, 257, 3}, {31, 33, 29}, {64, 64, 64}} {
				r, k, c := dims[0], dims[1], dims[2]
				a := RandNormal(r, k, 0, 1, rng)
				b := RandNormal(r, c, 0, 1, rng)
				seed := RandNormal(k, c, 0, 1, rng)
				want := seed.Clone()
				addMatMulATBPanel(want, a, b, 0, k)
				got := seed.Clone()
				AddMatMulATB(got, a, b)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%v: element %d differs", dims, i)
					}
				}
			}
		})
	}
}

// TestParallelCutoffBrackets pins the cutoff's intent: a typical LSTM-step
// GEMM (16×30×64) stays serial, the benchmark sweep's large shapes (≥ 256³)
// parallelize.
func TestParallelCutoffBrackets(t *testing.T) {
	if 16*30*64 >= parCutoff {
		t.Fatalf("cutoff %d too low: an LSTM-step GEMM would pay dispatch overhead", parCutoff)
	}
	if 256*256*256 < parCutoff {
		t.Fatalf("cutoff %d too high: 256³ GEMMs would stay serial", parCutoff)
	}
}

// TestParallelConcurrentCallers: concurrent MatMulInto calls (the shape
// concurrent scoring workers produce) must stay correct while sharing the panel
// pool. Run under -race in CI.
func TestParallelConcurrentCallers(t *testing.T) {
	forceParallel(t, 4)
	rng := rand.New(rand.NewSource(24))
	a := RandNormal(96, 64, 0, 1, rng)
	b := RandNormal(64, 96, 0, 1, rng)
	want := New(96, 96)
	matMulPanel(want, a, b, 0, 96, 0, 96)

	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := New(96, 96)
			for iter := 0; iter < 25; iter++ {
				MatMulInto(out, a, b)
				for i := range want.Data {
					if out.Data[i] != want.Data[i] {
						errs <- i
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if i, bad := <-errs; bad {
		t.Fatalf("concurrent parallel MatMulInto diverged at element %d", i)
	}
}

// TestSetWorkersClamps pins the knob semantics: non-positive selects
// GOMAXPROCS, Workers never reports below 1.
func TestSetWorkersClamps(t *testing.T) {
	defer SetWorkers(1)
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0)", Workers())
	}
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	SetWorkers(1)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", Workers())
	}
}
