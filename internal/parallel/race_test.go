//go:build race

package parallel

// The race detector instruments channel operations with allocations of
// its own.
func init() { raceEnabled = true }
