package spec_test

// Unit tests for the ts.System a compiled spec instantiates: guards gate
// rules, actions fire on a copy, per-process instances carry their own
// names, aborted copies go back to the successor pool, and every Initial
// call hands out a fresh state.

import (
	"errors"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
)

func parse(t *testing.T, doc string) *spec.Model {
	t.Helper()
	m, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSystemGuardAndAction checks guard gating, and that an action mutates
// a copy of the state it fires on and never the state itself.
func TestSystemGuardAndAction(t *testing.T) {
	sys := parse(t, `{"format": "verc3_model_v1", "name": "count",
	  "vars": [{"name": "v", "type": "int", "min": 0, "max": 3}, {"name": "done", "type": "bool"}],
	  "rules": [
	    {"name": "inc", "guard": "v < 3", "action": ["v = v + 1"]},
	    {"name": "finish", "guard": "v == 3", "action": ["done = true"]}],
	  "invariants": [{"name": "bounded", "expr": "v <= 3"}],
	  "goals": [{"name": "finished", "expr": "done"}],
	  "quiescent": "done"}`).System()

	res, err := mc.Check(sys, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("verdict %v (%+v)", res.Verdict, res.Failure)
	}
	if res.Stats.VisitedStates != 5 { // v=0..3 plus done
		t.Errorf("states = %d, want 5", res.Stats.VisitedStates)
	}

	init := sys.Initial()[0]
	rules := sys.AppendRules(nil, init)
	if len(rules) != 1 || sys.RuleName(rules[0]) != "inc" {
		t.Fatalf("enabled at v=0: %d rules, want only inc", len(rules))
	}
	next, err := sys.FireRule(init, rules[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := init.Key()+" → "+next.Key(), "0,0 → 1,0"; got != want {
		t.Errorf("firing inc: %s, want %s", got, want)
	}
}

// TestSystemPerProcessNames checks that a per-process rule has one instance
// per process, gated by its guard at that i and named from its pattern.
func TestSystemPerProcessNames(t *testing.T) {
	sys := parse(t, `{"format": "verc3_model_v1", "name": "bumps", "processes": 3,
	  "vars": [{"name": "v", "type": "int", "min": 0, "max": 9}],
	  "rules": [{"name": "p%d: bump", "per_process": true, "guard": "i != 1", "action": ["v = v + i"]}]}`).System()
	init := sys.Initial()[0]
	rules := sys.AppendRules(nil, init)
	if len(rules) != 2 {
		t.Fatalf("instances = %d, want 2 (the guard filters i=1)", len(rules))
	}
	if a, b := sys.RuleName(rules[0]), sys.RuleName(rules[1]); a != "p0: bump" || b != "p2: bump" {
		t.Errorf("names = %q, %q", a, b)
	}
	next, err := sys.FireRule(init, rules[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Key() != "2" {
		t.Errorf("p2: bump from 0 gives %s, want 2", next.Key())
	}
}

// TestSystemAbortRecycles checks that an action aborted at a wildcard hole
// hands its copy back to the pool: the next firing reuses it, which
// PoolStats reports as a hit.
func TestSystemAbortRecycles(t *testing.T) {
	sys := parse(t, `{"format": "verc3_model_v1", "name": "abort",
	  "vars": [{"name": "v", "type": "int", "min": 0, "max": 1}],
	  "rules": [{"name": "step", "action": [{"choose": "h", "among": [
	    {"name": "a", "do": ["v = 1"]}, {"name": "b", "do": ["v = 0"]}]}]}]}`).System()
	init := sys.Initial()[0]
	rules := sys.AppendRules(nil, init)
	env := ts.NewEnv(core.FixedChooser{}) // every hole at its wildcard
	// sync.Pool may drop a Put (always possible, and on purpose under the
	// race detector), so a reuse is asked of several aborts, not one.
	for n := 0; n < 10; n++ {
		next, err := sys.FireRule(init, rules[0], env)
		if !errors.Is(err, ts.ErrWildcard) || next != nil {
			t.Fatalf("firing at a wildcard gave %v, %v; want nil, ErrWildcard", next, err)
		}
	}
	if hits, _ := sys.(ts.PoolReporter).PoolStats(); hits == 0 {
		t.Error("no firing reused an aborted copy")
	}
}

// TestSystemInitialIsFresh checks that Initial hands out a new state each
// call, so a recycled initial state that the pool overwrites leaves later
// runs' initial states untouched.
func TestSystemInitialIsFresh(t *testing.T) {
	sys := parse(t, `{"format": "verc3_model_v1", "name": "fresh",
	  "vars": [{"name": "v", "type": "int", "min": 0, "max": 1}],
	  "rules": [{"name": "set", "action": ["v = 1"]}]}`).System()
	a, b := sys.Initial()[0], sys.Initial()[0]
	if a == b {
		t.Fatal("Initial returned the same state twice")
	}
	rules := sys.AppendRules(nil, b)
	for n := 0; n < 10; n++ {
		sys.(ts.Recycler).Recycle(a)
		if a, _ = sys.FireRule(b, rules[0], nil); a.Key() != "1" {
			t.Fatalf("fired state %s, want 1", a.Key())
		}
	}
	if got := sys.Initial()[0].Key(); got != "0" {
		t.Errorf("initial state after recycling = %s, want 0", got)
	}
}

// TestSystemHoles runs a synthesis through a compiled sketch: a hole picks
// the increment, and +1 and +2 reach exactly 4 while +3 overshoots (3, then
// 6 breaks the invariant).
func TestSystemHoles(t *testing.T) {
	m := parse(t, `{"format": "verc3_model_v1", "name": "holes",
	  "vars": [{"name": "v", "type": "int", "min": 0, "max": 7}, {"name": "done", "type": "bool"}],
	  "rules": [
	    {"name": "step", "guard": "!done && v < 4", "action": [{"choose": "inc-by", "among": [
	      {"name": "+1", "do": ["v = v + 1"]},
	      {"name": "+2", "do": ["v = v + 2"]},
	      {"name": "+3", "do": ["v = v + 3"]}]}]},
	    {"name": "stop", "guard": "v == 4 && !done", "action": ["done = true"]}],
	  "invariants": [{"name": "max4", "expr": "v <= 4"}],
	  "goals": [{"name": "reached4", "expr": "done"}],
	  "quiescent": "done"}`)
	res, err := core.Synthesize(m.System(), core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := range res.Solutions {
		got[res.HoleActions[0][res.Solutions[i].Assign[0]]] = true
	}
	if len(res.Solutions) != 2 || !got["+1"] || !got["+2"] {
		t.Errorf("solutions %v, want +1 and +2", got)
	}
}
