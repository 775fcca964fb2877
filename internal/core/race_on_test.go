//go:build race

package core_test

// raceEnabled reports whether the race detector is active (this variant:
// yes). See race_off_test.go.
const raceEnabled = true
