//go:build race

package bench

// raceEnabled reports a -race build.
const raceEnabled = true
