package main

import "time"

// The reference kernel is the benchmark's yardstick for how fast the host is
// running right now. It must not change when the repository's code changes,
// so this file imports nothing from repro/internal (a test checks that) and
// its sizes and iteration count are frozen here.
const (
	refDim  = 96 // refDim×refDim float64 matrices, 3×72 KiB: inside L2
	refReps = 12 // products per kernel run

	// refNominalMS is what one kernel run takes on a quiet host of the
	// machine class the baseline in README.md was recorded on. Every timing
	// is reported as if the host ran the kernel in exactly this time.
	refNominalMS = 8.0
)

var refA, refB, refC [refDim * refDim]float64

func init() {
	for i := range refA {
		refA[i] = float64(i%7)*0.25 - 0.5
		refB[i] = float64(i%5)*0.125 + 0.25
	}
}

// refSink keeps the compiler from discarding the kernel's result.
var refSink float64

// refTime is one reading of the host's speed: the kernel run three times,
// the middle time taken, so that one preempted run does not misstate it.
func refTime() float64 {
	a, b, c := runRefKernel(), runRefKernel(), runRefKernel()
	return max(min(a, b), min(max(a, b), c))
}

// runRefKernel runs the frozen scalar kernel once — refReps dense ikj
// products — and returns its wall time in milliseconds.
func runRefKernel() float64 {
	start := time.Now()
	for rep := 0; rep < refReps; rep++ {
		for i := range refC {
			refC[i] = 0
		}
		for i := 0; i < refDim; i++ {
			for k := 0; k < refDim; k++ {
				a := refA[i*refDim+k]
				row := refB[k*refDim : (k+1)*refDim]
				out := refC[i*refDim : (i+1)*refDim]
				for j, b := range row {
					out[j] += a * b
				}
			}
		}
		refSink += refC[rep]
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
