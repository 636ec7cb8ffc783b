//go:build !race

package baselines

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
