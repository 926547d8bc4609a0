//go:build race

package cluster

// raceEnabled reports a -race build, whose slowdown puts long soak
// tests out of reach.
const raceEnabled = true
