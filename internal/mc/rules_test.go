package mc_test

// The ts.System rule contract, zoo-wide: the laws the kernel relies on when
// it enumerates a state's records into a reused buffer, fires each one
// once and names one only when something shows it.

import (
	"bytes"
	"errors"
	"hash/fnv"
	"slices"
	"testing"

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

// TestZooRuleLaws walks a breadth-first prefix of every zoo entry (and so
// of every committed spec) under a few partial candidates and, at every
// state, checks
// the laws the kernel relies on: AppendRules appends after whatever the
// buffer already holds without touching it; two enumerations give equal
// records with equal names; firing a record twice gives byte-equal
// successors, or two wildcard aborts; and firing leaves the source state's
// encoding unchanged.
func TestZooRuleLaws(t *testing.T) {
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
	enc := func(s ts.State) []byte { return s.AppendKey(nil) }
	sentinel := []ts.Rule{{ID: 0xffff, Agent: -1, Msg: -1, Name: 0xffffffff}, {ID: 7, Agent: 3, Msg: 5, Name: 11}}
	for name, build := range systems {
		t.Run(name, func(t *testing.T) {
			fired, aborted := 0, 0
			for seed := partialChooser(0); seed < 4; seed++ {
				sys := build()
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
					buf := append(make([]ts.Rule, 0, 64), sentinel...)
					rules := sys.AppendRules(buf, s)
					if !slices.Equal(buf, sentinel) || !slices.Equal(rules[:len(sentinel)], sentinel) {
						t.Fatalf("state %q: AppendRules overwrote the buffer's prefix", s.Key())
					}
					rules = rules[len(sentinel):]
					again := sys.AppendRules(nil, s)
					if !slices.Equal(again, rules) {
						t.Fatalf("state %q: enumerated %v, then %v", s.Key(), rules, again)
					}
					for i, r := range rules {
						name := sys.RuleName(r)
						if other := sys.RuleName(again[i]); other != name {
							t.Fatalf("state %q, %v: named %q, then %q", s.Key(), r, name, other)
						}
						a, errA := sys.FireRule(s, r, env)
						b, errB := sys.FireRule(s, r, env)
						if !bytes.Equal(before, enc(s)) {
							t.Fatalf("firing %q moved the source state %q", name, s.Key())
						}
						if errA != nil || errB != nil {
							if !errors.Is(errA, ts.ErrWildcard) || !errors.Is(errB, ts.ErrWildcard) {
								t.Fatalf("state %q, %q: errors %v / %v, want two wildcard aborts", s.Key(), name, errA, errB)
							}
							aborted++
							continue
						}
						fired++
						ea := enc(a)
						if !bytes.Equal(ea, enc(b)) {
							t.Fatalf("state %q, %q: successors %q / %q", s.Key(), name, a.Key(), b.Key())
						}
						if k := string(ea); !seen[k] {
							seen[k] = true
							queue = append(queue, a)
						}
					}
				}
			}
			if fired == 0 || (zoo.IsSketch(name) && aborted == 0) {
				t.Errorf("walk fired %d transitions and aborted %d: nothing compared", fired, aborted)
			}
		})
	}
}
