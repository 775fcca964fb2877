package core_test

import (
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
)

// TestExactnessOracleTableI re-explores every candidate a Table I
// synthesis dispatches through the exactness oracle (internal/ts/tstest),
// all against one fingerprint table: no two distinct states reached by any
// candidate of the run may share a fingerprint. The checker's verdicts —
// and with them every pruning pattern learned from a failing candidate,
// which the final re-verification of winners never revisits — then come
// from exact explorations. The oracle stops where a one-worker dispatch
// stops, so every dispatch's state count must also equal the oracle's,
// failing candidates included.
//
// Each OnEvaluate event's assignment is replayed as a core.FixedChooser
// through the run's final hole names: holes the candidate left open, and
// holes not yet discovered when it was dispatched, stay wildcards, which is
// what the dispatch saw. MSI-small always runs; MSI-large (50,206
// candidates) only without -short and without the race detector.
func TestExactnessOracleTableI(t *testing.T) {
	for _, tc := range []struct {
		variant   msi.Variant
		name      string
		evaluated int64
		long      bool
	}{
		{msi.Small, "msi-small", 1556, false},
		{msi.Large, "msi-large", 50206, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && (testing.Short() || raceEnabled) {
				t.Skip("50k candidate re-explorations; run without -short and -race")
			}
			sys := msi.New(msi.Config{Caches: 2, Variant: tc.variant})
			var events []core.Event
			res, err := core.Synthesize(sys, core.Config{
				Mode:       core.ModePrune,
				PruneStyle: core.PruneFullVector,
				Workers:    1,
				MC:         mc.Options{Symmetry: true},
				OnEvaluate: func(ev core.Event) { events = append(events, ev) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Evaluated != tc.evaluated {
				t.Errorf("evaluated %d candidates, want %d", res.Stats.Evaluated, tc.evaluated)
			}
			oracle := tstest.New(t)
			for _, ev := range events {
				candidate := core.FixedChooser{}
				for j, a := range ev.Assign {
					if a != core.Wildcard {
						candidate[res.HoleNames[j]] = res.HoleActions[j][a]
					}
				}
				if got := oracle.Explore(sys, ts.NewEnv(candidate), true); got.States != ev.VisitedStates {
					t.Fatalf("candidate %v (%v): dispatch visited %d states, oracle %d", ev.Assign, ev.Verdict, ev.VisitedStates, got.States)
				}
			}
			if int64(len(events)) != res.Stats.Evaluated {
				t.Errorf("re-explored %d candidates, engine evaluated %d", len(events), res.Stats.Evaluated)
			}
			t.Logf("%d candidates re-explored (%d patterns, %d solutions): %d distinct identities, no fingerprint merges",
				len(events), res.Stats.Patterns, len(res.Solutions), oracle.Identities())
		})
	}
}
