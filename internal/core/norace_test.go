//go:build !race

package core

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
