//go:build race

package collector

// The race detector makes sync.Pool drop a share of what it is handed,
// so pooled paths allocate there by design.
func init() { raceEnabled = true }
