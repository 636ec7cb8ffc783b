//go:build race

package core

// raceEnabled reports a race-detector build. The detector makes sync.Pool
// drop a share of its Puts at random, so allocation counts do not repeat.
const raceEnabled = true
