package zoo_test

// Behavioural tests of the spec-built small models, Peterson's algorithm and
// the token ring, as the zoo serves them. The absolute state, transition and
// synthesis counts are pinned per spec file in internal/spec.

import (
	"context"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

func get(t *testing.T, name string) ts.System {
	t.Helper()
	sys, err := zoo.Get(name, zoo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPetersonVerifies checks the complete algorithm satisfies mutual
// exclusion, deadlock freedom, and the usage goals.
func TestPetersonVerifies(t *testing.T) {
	for _, sym := range []bool{false, true} {
		res, err := mc.Check(get(t, "peterson"), mc.Options{Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success {
			t.Fatalf("sym=%v: verdict %v (failure: %+v)", sym, res.Verdict, res.Failure)
		}
		t.Logf("sym=%v: %d states", sym, res.Stats.VisitedStates)
	}
}

// TestPetersonSynthesis synthesizes the three held-out actions: of the
// 2·2·2 candidates exactly Peterson's choices (turn:=other, clear flag,
// back to Idle) survive.
func TestPetersonSynthesis(t *testing.T) {
	for _, cfg := range []core.Config{
		{Mode: core.ModePrune},
		{Mode: core.ModePrune, PruneStyle: core.PruneTraceGeneralized},
		{Mode: core.ModeNaive},
	} {
		res, err := core.Synthesize(get(t, "peterson-sketch"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Holes != 3 {
			t.Fatalf("%v: holes = %d, want 3", cfg.Mode, res.Stats.Holes)
		}
		if len(res.Solutions) != 1 {
			t.Fatalf("%v: solutions = %d, want 1", cfg.Mode, len(res.Solutions))
		}
		for i, name := range res.HoleNames {
			correct := map[string]string{
				"turn-write": "other",
				"exit-flag":  "clear",
				"after-crit": "Idle",
			}[name]
			got := res.HoleActions[i][res.Solutions[0].Assign[i]]
			if got != correct {
				t.Errorf("%v: hole %s = %s, want %s", cfg.Mode, name, got, correct)
			}
		}
	}
}

// TestWrongTurnBreaksMutex documents why the sketch is non-trivial: writing
// turn:=me lets both processes enter the critical section.
func TestWrongTurnBreaksMutex(t *testing.T) {
	res, err := core.Synthesize(get(t, "peterson-sketch"), core.Config{Mode: core.ModeNaive})
	if err != nil {
		t.Fatal(err)
	}
	// At least one failing candidate must exist with turn-write=me; since
	// the unique solution has turn-write=other, all 4 turn-write=me
	// candidates failed.
	if res.Stats.Failures == 0 {
		t.Error("expected failing candidates among the 8")
	}

	// Peterson's algorithm with only the turn write flipped violates
	// mutual exclusion itself.
	wrong := core.FixedChooser{"turn-write": "me", "exit-flag": "clear", "after-crit": "Idle"}
	got, err := mc.NewSession(get(t, "peterson-sketch"), mc.Options{}).Check(context.Background(), ts.NewEnv(wrong), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != mc.Failure || got.Failure.Kind != mc.FailInvariant || got.Failure.Name != "mutual-exclusion" {
		t.Errorf("turn-write=me: verdict %v, failure %+v; want the mutual-exclusion invariant to fail", got.Verdict, got.Failure)
	}
}

// TestCompleteRingVerifies pins the complete protocol's verdict and state
// count (12 states: holder × critical-section status × liveness ghosts
// along the canonical rotation).
func TestCompleteRingVerifies(t *testing.T) {
	res, err := mc.Check(get(t, "token-ring"), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Stats.VisitedStates != 12 {
		t.Errorf("states = %d, want 12", res.Stats.VisitedStates)
	}
}
