//go:build !race

package ranker

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
