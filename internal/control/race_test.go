//go:build race

package control

// raceEnabled reports a build with the race detector.
const raceEnabled = true
