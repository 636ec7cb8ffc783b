//go:build !race

package engine

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
