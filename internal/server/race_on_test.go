//go:build race

package server

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop items at random, so allocation counts are not exact there.
const raceEnabled = true
