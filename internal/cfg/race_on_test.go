//go:build race

package cfg_test

// raceEnabled reports that the race detector is on: its instrumentation
// slows every memory access, so timing comparisons are not checked
// under it.
const raceEnabled = true
