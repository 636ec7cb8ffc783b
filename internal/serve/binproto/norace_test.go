//go:build !race

package binproto

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
