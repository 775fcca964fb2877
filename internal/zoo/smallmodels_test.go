package zoo_test

// Behavioural tests of the spec-built small models, Peterson's algorithm and
// the token ring, as the zoo serves them. The absolute state, transition and
// synthesis counts are pinned per spec file in internal/spec.

import (
	"bytes"
	"context"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/symmetry"
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

// TestAppendKeyMatchesKeyPartition checks binary/string agreement of the
// Peterson state over a broad population: every state reachable under each
// of the sketch's 8 completions, and every pid renaming of those.
// AppendKey-equality must coincide with Key-equality.
func TestAppendKeyMatchesKeyPartition(t *testing.T) {
	var population []ts.State
	for _, tw := range []string{"other", "me"} {
		for _, ef := range []string{"clear", "keep"} {
			for _, ac := range []string{"Idle", "Crit"} {
				env := ts.NewEnv(core.FixedChooser{"turn-write": tw, "exit-flag": ef, "after-crit": ac})
				population = append(population, reachable(t, get(t, "peterson-sketch"), env)...)
			}
		}
	}
	perms := symmetry.Permutations(2)
	for _, s := range population[:len(population):len(population)] {
		for _, perm := range perms {
			population = append(population, symmetry.Permuted(s.(ts.Permutable), perm))
		}
	}

	byKey := map[string][]byte{}
	byEnc := map[string]string{}
	for _, s := range population {
		k, enc := s.Key(), s.AppendKey(nil)
		if prev, ok := byKey[k]; ok && !bytes.Equal(prev, enc) {
			t.Fatalf("key %q encoded two ways", k)
		}
		if prevKey, ok := byEnc[string(enc)]; ok && prevKey != k {
			t.Fatalf("keys %q and %q share encoding %x", prevKey, k, enc)
		}
		byKey[k] = enc
		byEnc[string(enc)] = k
	}
	if len(byKey) < 30 {
		t.Errorf("population has %d distinct states, want at least Peterson's 30", len(byKey))
	}
}

// reachable returns every state sys reaches under env, by breadth-first
// search on Key.
func reachable(t *testing.T, sys ts.System, env *ts.Env) []ts.State {
	t.Helper()
	seen := map[string]bool{}
	var out []ts.State
	frontier := sys.Initial()
	for len(frontier) > 0 {
		var next []ts.State
		for _, s := range frontier {
			if seen[s.Key()] {
				continue
			}
			seen[s.Key()] = true
			out = append(out, s)
			for _, r := range sys.AppendRules(nil, s) {
				succ, err := sys.FireRule(s, r, env)
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, succ)
			}
		}
		frontier = next
	}
	return out
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
