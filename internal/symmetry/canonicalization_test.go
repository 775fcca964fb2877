package symmetry_test

// Property tests for sort-then-permute canonicalization on toy states: the
// fingerprint reached by sorting the agents (ts.AgentComparer) and
// permuting only within tie classes must be, bit for bit, the fingerprint
// of the smallest encoding over all N! permutations. The reference is the
// same canonicalizer on the same state with the capability hidden, which
// makes the state one tie class of N. The same comparison on every offered
// state of every symmetric zoo model is internal/zoo's TestZooConformance
// (its comparer law).

import (
	"fmt"
	"math/rand"
	"testing"

	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// exhaustive hides ts.AgentComparer: the embedded interfaces promote every
// other capability of the wrapped state (its Clone and PermuteInto work on
// the unwrapped type), so Fingerprint searches all N! permutations.
type exhaustive struct {
	ts.Permutable
}

// counted counts the encodings one Fingerprint call compares: the state
// itself when the first arrangement is the identity, and one permuted copy
// for every other arrangement.
type counted struct {
	ts.Permutable
	ts.AgentComparer
	tried *int
}

func (c counted) AppendKey(dst []byte) []byte {
	*c.tried++
	return c.Permutable.AppendKey(dst)
}

func (c counted) PermuteInto(dst ts.State, perm []int) {
	*c.tried++
	c.Permutable.PermuteInto(dst, perm)
}

// tieVec is a toy symmetric state built to the ts.AgentComparer contract:
// one byte per agent first (the compared records), then an agent
// identifier, which renaming changes and which therefore decides among
// tied arrangements only.
type tieVec struct {
	vals  []byte
	owner int
}

func (v *tieVec) Key() string    { return fmt.Sprint(v.vals, v.owner) }
func (v *tieVec) NumAgents() int { return len(v.vals) }
func (v *tieVec) Clone() ts.State {
	return &tieVec{vals: append([]byte(nil), v.vals...), owner: v.owner}
}
func (v *tieVec) PermuteInto(dst ts.State, perm []int) {
	d := dst.(*tieVec)
	for i, val := range v.vals {
		d.vals[perm[i]] = val
	}
	d.owner = perm[v.owner]
}
func (v *tieVec) AppendKey(dst []byte) []byte {
	return append(append(dst, v.vals...), byte(v.owner))
}
func (v *tieVec) CompareAgents(i, j int) int { return int(v.vals[i]) - int(v.vals[j]) }

// TestFingerprintTriesOnlyTiePermutations pins the enumerator on random toy
// states of one to five agents: the pruned search agrees with the
// exhaustive one, it compares exactly the product of the tie classes'
// factorials many encodings, and every member of the orbit reaches the
// same fingerprint.
func TestFingerprintTriesOnlyTiePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fact := []int{1, 1, 2, 6, 24, 120}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		s := &tieVec{vals: make([]byte, n), owner: rng.Intn(n)}
		classes := map[byte]int{}
		for i := range s.vals {
			s.vals[i] = byte(rng.Intn(3))
			classes[s.vals[i]]++
		}
		want := 1
		for _, size := range classes {
			want *= fact[size]
		}
		c := symmetry.NewCanonicalizer(n)
		tried := 0
		got := c.Fingerprint(counted{s, s, &tried})
		if tried != want {
			t.Fatalf("%v: compared %d encodings, tie classes %v allow %d", s, tried, classes, want)
		}
		if full := c.Fingerprint(exhaustive{s}); got != full {
			t.Fatalf("%v: pruned fingerprint %x, exhaustive %x", s, got, full)
		}
		if again := c.Fingerprint(symmetry.Permuted(s, rng.Perm(n))); again != got {
			t.Fatalf("%v: a permuted copy fingerprints %x, the state %x", s, again, got)
		}
	}
}
