//go:build !race

package core_test

// raceEnabled reports whether the race detector is active (this variant:
// no). Allocation ceilings are checked only without -race, where sync.Pool
// deliberately discards a fraction of Puts to widen race coverage, making
// the successor pool look like a steady allocator.
const raceEnabled = false
