//go:build race

package obs

// raceEnabled reports a race-detector build, whose instrumentation may
// allocate where the plain build does not.
const raceEnabled = true
