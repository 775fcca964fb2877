package symmetry_test

// Zoo-wide tests of the ts ownership rule — every state owns all of its
// mutable storage — and of the one renaming method it leaves, PermuteInto.
// They live here because the canonicalizer is the rule's first client: its
// scratch is a Clone that PermuteInto overwrites once per permutation.

import (
	"bytes"
	"math/rand"
	"testing"

	"verc3/internal/msi"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// everyModel lists every zoo entry at two caches and the three committed
// specs.
func everyModel(t *testing.T) []entry {
	var entries []entry
	for _, name := range zoo.Names() {
		entries = append(entries, zooEntry(t, name, 2))
	}
	for _, file := range []string{"mutex.json", "mutex-sketch.json", "tokenring.json"} {
		entries = append(entries, specFileEntry(t, file))
	}
	return entries
}

// population walks sys breadth-first under candidate 0 and returns up to
// limit states with distinct keys, each with its AppendKey encoding.
func population(t *testing.T, sys ts.System, limit int) (states []ts.State, encs [][]byte) {
	t.Helper()
	env := ts.NewEnv(hashChooser(0))
	seen := map[string]bool{}
	offer := func(s ts.State) {
		if k := s.Key(); !seen[k] && len(states) < limit {
			seen[k] = true
			states = append(states, s)
			encs = append(encs, s.(ts.KeyAppender).AppendKey(nil))
		}
	}
	for _, s := range sys.Initial() {
		offer(s)
	}
	for head := 0; head < len(states) && len(states) < limit; head++ {
		s := states[head]
		for _, r := range sys.AppendRules(nil, s) {
			next, err := sys.FireRule(s, r, env)
			if err != nil {
				t.Fatalf("fire %q: %v", sys.RuleName(r), err)
			}
			offer(next)
		}
	}
	if len(states) < 2 {
		t.Fatalf("walk collected only %d states", len(states))
	}
	return states, encs
}

// TestZooCloneIsPrivate: whatever is written into a state's Clone — another
// state through CopyFrom, a renaming of another state through PermuteInto,
// messages through the MSI network's in-place operations — the original's
// encoding must not move, and neither must the state that was copied from.
func TestZooCloneIsPrivate(t *testing.T) {
	for _, e := range everyModel(t) {
		t.Run(e.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			states, encs := population(t, e.sys(), 300)
			intact := func(what string, i int) {
				t.Helper()
				if got := states[i].(ts.KeyAppender).AppendKey(nil); !bytes.Equal(got, encs[i]) {
					t.Fatalf("%s moved state %d: %q\n  encoded %x, now %x", what, i, states[i].Key(), encs[i], got)
				}
			}
			wrote := 0
			for i, s := range states {
				j := (i + 1 + rng.Intn(len(states)-1)) % len(states) // some other state
				other := states[j]
				c := s.Clone()
				if got := c.(ts.KeyAppender).AppendKey(nil); !bytes.Equal(got, encs[i]) {
					t.Fatalf("Clone of state %d encodes %x, the state %x", i, got, encs[i])
				}
				if cp, ok := c.(interface{ CopyFrom(ts.State) }); ok {
					cp.CopyFrom(other)
					wrote++
					intact("CopyFrom into a Clone", i)
					if got := c.(ts.KeyAppender).AppendKey(nil); !bytes.Equal(got, encs[j]) {
						t.Fatalf("CopyFrom(state %d) left %x, want %x", j, got, encs[j])
					}
				}
				if p, ok := other.(ts.Permutable); ok {
					p.PermuteInto(c, rng.Perm(p.NumAgents()))
					wrote++
					intact("PermuteInto a Clone", i)
				}
				if m, ok := c.(*msi.State); ok {
					m.Net.SendInPlace(msi.Msg{Kind: msi.MsgAck, Src: 0, Dst: 1, Req: msi.None})
					m.Net.RemoveInPlace(0)
					wrote++
					intact("SendInPlace/RemoveInPlace on a Clone's network", i)
				}
				intact("writing into another state's Clone", j)
			}
			t.Logf("%d states, %d in-place writes into Clones", len(states), wrote)
		})
	}
}

// TestZooPermuteIntoRoundTrip: on every symmetric model, PermuteInto with
// the identity is a no-op, a permutation followed by its inverse is the
// identity, the renamed state keeps NumAgents, and the source is never
// modified — through one destination per direction, reused across all
// states so that stale contents of every shape get overwritten.
func TestZooPermuteIntoRoundTrip(t *testing.T) {
	covered := 0
	for _, e := range everyModel(t) {
		if _, ok := e.sys().Initial()[0].(ts.Permutable); !ok {
			continue
		}
		covered++
		t.Run(e.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			states, encs := population(t, e.sys(), 300)
			n := states[0].(ts.Permutable).NumAgents()
			id := make([]int, n)
			for i := range id {
				id[i] = i
			}
			there, back := states[0].Clone(), states[len(states)-1].Clone()
			enc := func(s ts.State) []byte { return s.(ts.KeyAppender).AppendKey(nil) }
			for i, st := range states {
				s := st.(ts.Permutable)
				if s.NumAgents() != n {
					t.Fatalf("state %d has %d agents, the initial state %d", i, s.NumAgents(), n)
				}
				s.PermuteInto(there, id)
				if got := enc(there); !bytes.Equal(got, encs[i]) {
					t.Fatalf("state %d %q: the identity renamed it to %x, want %x", i, st.Key(), got, encs[i])
				}
				perm := rng.Perm(n)
				s.PermuteInto(there, perm)
				if got := there.(ts.Permutable).NumAgents(); got != n {
					t.Fatalf("state %d renamed by %v has %d agents, want %d", i, perm, got, n)
				}
				there.(ts.Permutable).PermuteInto(back, symmetry.Invert(perm))
				if got := enc(back); !bytes.Equal(got, encs[i]) {
					t.Fatalf("state %d %q: %v then its inverse gives %x, want %x", i, st.Key(), perm, got, encs[i])
				}
				if got := enc(st); !bytes.Equal(got, encs[i]) {
					t.Fatalf("PermuteInto modified its source, state %d %q", i, st.Key())
				}
			}
		})
	}
	if covered < 8 {
		t.Errorf("only %d symmetric models covered; the zoo or the specs stopped offering ts.Permutable", covered)
	}
}
