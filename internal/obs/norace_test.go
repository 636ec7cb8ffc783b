//go:build !race

package obs

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
