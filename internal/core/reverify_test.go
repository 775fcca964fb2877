package core_test

// Tests for the traceless-search + trace-on-reverify split and the
// aggregated exploration memory profile (Stats.Space).

import (
	"testing"

	"verc3/internal/core"
)

// TestSolutionsReverified checks both modes re-verify every reported
// solution with trace recording on: the flag is set, and the trace nodes
// those re-checks retain show up in the aggregated profile — while the
// search itself contributes none.
func TestSolutionsReverified(t *testing.T) {
	for _, mode := range []core.Mode{core.ModePrune, core.ModeNaive} {
		res, err := core.Synthesize(figure2(t), core.Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Solutions) != 1 {
			t.Fatalf("%v: %d solutions, want 1", mode, len(res.Solutions))
		}
		if !res.Solutions[0].Reverified {
			t.Errorf("%v: solution not marked reverified", mode)
		}
		if res.Stats.Space.TraceNodes == 0 {
			t.Errorf("%v: no trace nodes in aggregate — reverification did not run with traces on", mode)
		}
		if res.Stats.Space.States == 0 || res.Stats.Space.Transitions == 0 {
			t.Errorf("%v: empty space profile %+v", mode, res.Stats.Space)
		}
	}
}

// TestSpaceAggregatesAcrossDispatches checks the per-dispatch profiles sum:
// the aggregate state count must equal TotalVisitedStates plus the states
// of the per-solution re-verification runs.
func TestSpaceAggregatesAcrossDispatches(t *testing.T) {
	res, err := core.Synthesize(figure2(t), core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Stats.Space.States) <= res.Stats.TotalVisitedStates {
		t.Errorf("Space.States = %d, want > TotalVisitedStates = %d (reverify runs must be included)",
			res.Stats.Space.States, res.Stats.TotalVisitedStates)
	}
	if res.Stats.Space.PeakFrontier == 0 {
		t.Errorf("PeakFrontier = 0, want the largest single dispatch's high-water mark")
	}
}
