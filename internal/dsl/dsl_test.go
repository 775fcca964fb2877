package dsl_test

import (
	"fmt"
	"testing"

	"verc3/internal/core"
	"verc3/internal/dsl"
	"verc3/internal/mc"
	"verc3/internal/ts"
)

// counter is a minimal mutable state for builder tests.
type counter struct {
	V    int
	Done bool
}

func (c *counter) Key() string     { return fmt.Sprintf("%d/%v", c.V, c.Done) }
func (c *counter) Clone() ts.State { cp := *c; return &cp }
func (c *counter) AppendKey(d []byte) []byte {
	done := byte(0)
	if c.Done {
		done = 1
	}
	return append(d, byte(c.V), done)
}

// TestRuleGuardAndAction checks guard gating and in-place mutation on a
// clone.
func TestRuleGuardAndAction(t *testing.T) {
	b := dsl.NewBuilder[*counter]("count", &counter{})
	b.Rule("inc", func(s *counter) bool { return s.V < 3 },
		func(s *counter, _ *ts.Env) error { s.V++; return nil })
	b.Rule("finish", func(s *counter) bool { return s.V == 3 },
		func(s *counter, _ *ts.Env) error { s.Done = true; return nil })
	b.Invariant("bounded", func(s *counter) bool { return s.V <= 3 })
	b.Goal("finished", func(s *counter) bool { return s.Done })
	b.Quiescent(func(s *counter) bool { return s.Done })
	sys := b.System()

	res, err := mc.Check(sys, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("verdict %v (%+v)", res.Verdict, res.Failure)
	}
	if res.Stats.VisitedStates != 5 { // V=0..3 plus Done
		t.Errorf("states = %d, want 5", res.Stats.VisitedStates)
	}
}

// TestRuleSetExpansion checks per-parameter instances and names.
func TestRuleSetExpansion(t *testing.T) {
	b := dsl.NewBuilder[*counter]("rs", &counter{})
	b.RuleSet(3, "bump%d", func(s *counter, i int) bool { return i != 1 },
		func(s *counter, i int, _ *ts.Env) error { s.V += i; return nil })
	sys := b.System()
	init := sys.Initial()[0]
	rules := sys.AppendRules(nil, init)
	if len(rules) != 2 {
		t.Fatalf("instances = %d, want 2 (guard filters i=1)", len(rules))
	}
	if a, b := sys.RuleName(rules[0]), sys.RuleName(rules[1]); a != "bump0" || b != "bump2" {
		t.Errorf("names = %s, %s", a, b)
	}
	next, err := sys.FireRule(init, rules[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.(*counter).V != 2 {
		t.Errorf("V = %d, want 2", next.(*counter).V)
	}
}

// TestChoiceExpansion checks nondeterministic alternatives.
func TestChoiceExpansion(t *testing.T) {
	b := dsl.NewBuilder[*counter]("ch", &counter{})
	b.Choice("set%d", func(s *counter) []int {
		if s.V != 0 {
			return nil
		}
		return []int{1, 2, 3}
	}, func(s *counter, alt int, _ *ts.Env) error { s.V = alt; return nil })
	sys := b.System()
	if rules := sys.AppendRules(nil, sys.Initial()[0]); len(rules) != 3 {
		t.Fatalf("alternatives = %d, want 3", len(rules))
	}
}

// TestHolesThroughDSL runs a full synthesis through a builder-made system:
// a hole decides the increment; only +2 reaches exactly 4 (the goal) without
// tripping the ≤4 invariant... both +1 and +2 can reach 4; +3 overshoots
// (3 then 6 violates). The point is wildcard propagation and solution flow.
func TestHolesThroughDSL(t *testing.T) {
	build := func() ts.System {
		b := dsl.NewBuilder[*counter]("holes", &counter{})
		b.Rule("step", func(s *counter) bool { return !s.Done && s.V < 4 },
			func(s *counter, env *ts.Env) error {
				a, err := env.Choose("inc-by", []string{"+1", "+2", "+3"})
				if err != nil {
					return err
				}
				s.V += a + 1
				return nil
			})
		b.Rule("stop", func(s *counter) bool { return s.V == 4 },
			func(s *counter, _ *ts.Env) error { s.Done = true; return nil })
		b.Invariant("max4", func(s *counter) bool { return s.V <= 4 })
		b.Goal("reached4", func(s *counter) bool { return s.Done })
		b.Quiescent(func(s *counter) bool { return s.Done })
		return b.System()
	}
	res, err := core.Synthesize(build(), core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %d (%v), want 2 (+1 and +2)", len(res.Solutions), res.Solutions)
	}
	got := map[string]bool{}
	for i := range res.Solutions {
		got[res.HoleActions[0][res.Solutions[i].Assign[0]]] = true
	}
	if !got["+1"] || !got["+2"] || got["+3"] {
		t.Errorf("solution actions = %v, want {+1,+2}", got)
	}
}

// TestBuilderPanics: misuse is loud.
func TestBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for no initial states")
		}
	}()
	dsl.NewBuilder[*counter]("bad")
}
