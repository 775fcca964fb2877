//go:build race

package mc_test

// raceEnabled reports whether the race detector is active (this variant:
// yes). See race_off_test.go.
const raceEnabled = true
