package mc_test

// The ts.RuleSystem contract, zoo-wide: the records a model enumerates and
// fires must be the transitions its closure-valued minimal API offers —
// same names, same order, same successors, same wildcard aborts — since
// the kernel explores through the former and everything written against
// ts.System sees the latter.

import (
	"bytes"
	"errors"
	"hash/fnv"
	"path/filepath"
	"testing"

	"verc3/internal/spec"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// partialChooser is a candidate with gaps: it resolves a hole to an action
// picked by hashing its name with the seed, or — one time in len(actions)+1
// — leaves it a wildcard, so a sketch's walk meets both real firings and
// aborted branches.
type partialChooser uint32

func (c partialChooser) Choose(hole string, actions []string) (int, error) {
	h := fnv.New32a()
	h.Write([]byte(hole))
	a := int((h.Sum32() ^ uint32(c)*2654435761) % uint32(len(actions)+1))
	if a == len(actions) {
		return 0, ts.ErrWildcard
	}
	return a, nil
}

// TestZooRulesMatchClosures walks a breadth-first prefix of every zoo entry
// and committed spec under a few partial candidates and, at every state,
// holds the three enumerations against each other: the system's own records
// (AppendRules, FireRule, RuleName), its closure-valued Transitions (built
// from the records by ts.AppendTransitions) and the records ts.Rules makes
// of those closures again (the Options.FreshTransitions path).
func TestZooRulesMatchClosures(t *testing.T) {
	systems := map[string]func() ts.System{}
	for _, name := range zoo.Names() {
		name := name
		systems[name] = func() ts.System {
			sys, err := zoo.Get(name, zoo.Params{Caches: 2})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	for _, file := range []string{"mutex.json", "mutex-sketch.json", "tokenring.json"} {
		m, err := spec.LoadFile(filepath.Join("../../examples/specs", file))
		if err != nil {
			t.Fatal(err)
		}
		systems["spec/"+file] = m.System
	}
	enc := func(s ts.State) []byte { return s.(ts.KeyAppender).AppendKey(nil) }
	for name, build := range systems {
		t.Run(name, func(t *testing.T) {
			fired, aborted := 0, 0
			for seed := partialChooser(0); seed < 4; seed++ {
				sys := build()
				rs, ok := sys.(ts.RuleSystem)
				if !ok {
					t.Fatalf("%T does not implement ts.RuleSystem", sys)
				}
				via := ts.Rules(sys, true)
				if via == rs {
					t.Fatalf("ts.Rules(sys, true) returned the system itself")
				}
				env := ts.NewEnv(seed)
				seen := map[string]bool{}
				var queue []ts.State
				for _, s := range sys.Initial() {
					seen[string(enc(s))] = true
					queue = append(queue, s)
				}
				for head := 0; head < len(queue) && head < 300; head++ {
					s := queue[head]
					before := enc(s)
					rules := rs.AppendRules(nil, s)
					trs := sys.Transitions(s)
					again := via.AppendRules(nil, s)
					if len(trs) != len(rules) || len(again) != len(rules) {
						t.Fatalf("state %q: %d rules, %d transitions, %d rules of transitions", s.Key(), len(rules), len(trs), len(again))
					}
					for i, r := range rules {
						name := rs.RuleName(r)
						if trs[i].Name != name || via.RuleName(again[i]) != name {
							t.Fatalf("state %q, transition %d: rule %q, closure %q, rule of closure %q",
								s.Key(), i, name, trs[i].Name, via.RuleName(again[i]))
						}
						a, errA := rs.FireRule(s, r, env)
						b, errB := trs[i].Fire(env)
						c, errC := via.FireRule(s, again[i], env)
						if errA != nil || errB != nil || errC != nil {
							for _, err := range []error{errA, errB, errC} {
								if !errors.Is(err, ts.ErrWildcard) {
									t.Fatalf("state %q, %q: errors %v / %v / %v, want three wildcard aborts", s.Key(), name, errA, errB, errC)
								}
							}
							aborted++
							continue
						}
						fired++
						ea := enc(a)
						if !bytes.Equal(ea, enc(b)) || !bytes.Equal(ea, enc(c)) {
							t.Fatalf("state %q, %q: successors %q / %q / %q", s.Key(), name, a.Key(), b.Key(), c.Key())
						}
						if k := string(ea); !seen[k] {
							seen[k] = true
							queue = append(queue, a)
						}
					}
					if !bytes.Equal(before, enc(s)) {
						t.Fatalf("firing moved the source state %q", s.Key())
					}
				}
			}
			if fired == 0 || (zoo.IsSketch(name) && aborted == 0) {
				t.Errorf("walk fired %d transitions and aborted %d: nothing compared", fired, aborted)
			}
		})
	}
}
