//go:build race

package firmup

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, and sync.Pool drops a quarter of what it is handed, so
// allocation budgets are not checked under it.
const raceEnabled = true
