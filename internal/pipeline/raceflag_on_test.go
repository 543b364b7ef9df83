//go:build race

package pipeline_test

// raceEnabled reports a -race build, under which sync.Pool drops a
// quarter of what it is given at random.
const raceEnabled = true
