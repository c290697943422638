//go:build !race

package firmup

const raceEnabled = false
