package symmetry_test

// Differential and property tests for sort-then-permute canonicalization:
// the fingerprint reached by sorting the agents (ts.AgentComparer) and
// permuting only within tie classes must be, bit for bit, the fingerprint
// of the smallest encoding over all N! permutations. The reference is the
// same canonicalizer on the same state with the capability hidden, which
// makes the state one tie class of N. The CI workflow runs the tests here
// as a dedicated step.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/zoo"
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

// symmetric is what every symmetric state of the zoo implements.
type symmetric interface {
	ts.Permutable
	ts.KeyAppender
	ts.AgentComparer
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

// hashChooser resolves every hole to an action picked by hashing its name
// with a seed: a deterministic candidate per seed, so sketches yield real
// state populations.
type hashChooser uint32

func (c hashChooser) Choose(hole string, actions []string) (int, error) {
	h := fnv.New32a()
	h.Write([]byte(hole))
	return int((h.Sum32() ^ uint32(c)*2654435761) % uint32(len(actions))), nil
}

// wideSpec is a three-process symmetric model whose layout exercises every
// branch of the spec comparer: a 4-byte little-endian slot array (255
// encodes above 510: byte order is not numeric order), a 1-byte array, then a pid array — where
// the comparer must stop — followed by an array it must therefore ignore,
// and a scalar pid.
const wideSpec = `{
  "format": "verc3_model_v1", "name": "wide", "processes": 3, "symmetric": true,
  "vars": [
    {"name": "cnt", "type": "int", "min": 0, "max": 1000, "array": true},
    {"name": "st", "type": "enum", "values": ["A", "B"], "array": true},
    {"name": "peer", "type": "pid", "nullable": true, "init": "none", "array": true},
    {"name": "late", "type": "bool", "array": true},
    {"name": "leader", "type": "pid", "nullable": true, "init": "none"}
  ],
  "rules": [
    {"name": "p%d: count", "per_process": true, "guard": "cnt[i] < 500", "action": ["cnt[i] = cnt[i] + 255"]},
    {"name": "p%d: step", "per_process": true, "guard": "st[i] == A", "action": ["st[i] = B"]},
    {"name": "p%d: lead", "per_process": true, "guard": "leader == none", "action": ["leader = i"]},
    {"name": "p%d: follow", "per_process": true, "guard": "leader != none && peer[i] == none", "action": ["peer[i] = leader"]},
    {"name": "p%d: mark", "per_process": true, "guard": "!late[i] && st[i] == B", "action": ["late[i] = true"]}
  ],
  "quiescent": "true"
}`

// entry is one model the zoo-wide tests of this package walk.
type entry struct {
	name   string
	sys    func() ts.System
	sketch bool
}

func zooEntry(t *testing.T, name string, caches int) entry {
	return entry{
		name: fmt.Sprintf("%s/caches=%d", name, caches),
		sys: func() ts.System {
			sys, err := zoo.Get(name, zoo.Params{Caches: caches})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
		sketch: zoo.IsSketch(name),
	}
}

func specEntry(t *testing.T, name string, m *spec.Model, err error) entry {
	if err != nil {
		t.Fatal(err)
	}
	return entry{name: name, sys: m.System, sketch: m.Sketch()}
}

// specFileEntry loads one of the committed examples/specs models.
func specFileEntry(t *testing.T, file string) entry {
	m, err := spec.LoadFile(filepath.Join("../../examples/specs", file))
	return specEntry(t, "spec/"+file, m, err)
}

// TestZooEquivalenceCanonicalization explores every symmetric model there
// is — the zoo at two caches, msi-complete at three to five, the committed
// symmetric specs and wideSpec — and on every offered successor (not just
// the admitted ones) requires the pruned fingerprint to equal the
// exhaustive one, and CompareAgents to be equivariant under a random
// renaming. Complete models must reach exactly the states mc.Check reports,
// so the walk is known to be the full exploration; it logs the mean number
// of encodings compared per call, the figure EXPERIMENTS.md E19 quotes.
func TestZooEquivalenceCanonicalization(t *testing.T) {
	var entries []entry
	for _, name := range zoo.Names() {
		entries = append(entries, zooEntry(t, name, 2))
	}
	for _, caches := range []int{3, 4, 5} {
		if caches == 5 && testing.Short() {
			continue
		}
		entries = append(entries, zooEntry(t, "msi-complete", caches))
	}
	for _, file := range []string{"mutex.json", "mutex-sketch.json"} {
		entries = append(entries, specFileEntry(t, file))
	}
	wide, err := spec.Parse([]byte(wideSpec))
	entries = append(entries, specEntry(t, "spec/wide", wide, err))

	covered := 0
	for _, e := range entries {
		e := e
		if _, ok := e.sys().Initial()[0].(ts.Permutable); !ok {
			continue
		}
		covered++
		t.Run(e.name, func(t *testing.T) {
			seeds := []hashChooser{0}
			if e.sketch {
				seeds = []hashChooser{0, 1, 2, 3}
			}
			for _, seed := range seeds {
				sys := e.sys()
				env := ts.NewEnv(seed)
				states, offered, tried := walkOffered(t, sys, env, e.sketch)
				t.Logf("candidate %d: %d states, %d offered, %.2f encodings compared per call",
					seed, states, offered, float64(tried)/float64(offered))
				if e.sketch {
					continue
				}
				res, err := mc.NewSession(sys, mc.Options{Symmetry: true}).Check(context.Background(), env, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict != mc.Success || res.Stats.VisitedStates != states {
					t.Errorf("walk reached %d states; mc.Check: %v, %d states", states, res.Verdict, res.Stats.VisitedStates)
				}
			}
		})
	}
	if covered < 12 {
		t.Errorf("only %d symmetric entries covered; the zoo or the specs stopped offering ts.Permutable", covered)
	}
}

// walkOffered explores sys breadth-first under symmetry reduction, checking
// every offered state, and returns the admitted and offered state counts
// and the encodings the pruned search compared in total. A sketch under an
// arbitrary candidate can be unbounded, so its walk is capped.
func walkOffered(t *testing.T, sys ts.System, env *ts.Env, capped bool) (states, offered, tried int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var canon *symmetry.Canonicalizer
	seen := map[statespace.Fingerprint]struct{}{}
	var frontier []ts.State
	offer := func(st ts.State) {
		s, ok := st.(symmetric)
		if !ok {
			t.Fatalf("state %T is symmetric but lacks ts.KeyAppender or ts.AgentComparer", st)
		}
		n := s.NumAgents()
		if canon == nil {
			canon = symmetry.NewCanonicalizer(n)
		}
		offered++
		fp := canon.Fingerprint(counted{s, s, &tried})
		if plain := canon.Fingerprint(s); plain != fp {
			t.Fatalf("counting changed the fingerprint: %x vs %x", fp, plain)
		}
		if full := canon.Fingerprint(exhaustive{s}); full != fp {
			t.Fatalf("pruned fingerprint %x, exhaustive %x\n state: %v", fp, full, st)
		}
		perm := rng.Perm(n)
		ps := symmetry.Permuted(s, perm).(ts.AgentComparer)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a, b := ps.CompareAgents(perm[i], perm[j]), s.CompareAgents(i, j); (a < 0) != (b < 0) || (a > 0) != (b > 0) {
					t.Fatalf("perm %v: CompareAgents(π·s, π(%d), π(%d)) = %d but CompareAgents(s, %d, %d) = %d\n state: %v",
						perm, i, j, a, i, j, b, st)
				}
			}
		}
		if _, dup := seen[fp]; !dup {
			seen[fp] = struct{}{}
			frontier = append(frontier, st)
		}
	}
	for _, st := range sys.Initial() {
		offer(st)
	}
	for head := 0; head < len(frontier) && !(capped && offered > 20000); head++ {
		s := frontier[head]
		for _, r := range sys.AppendRules(nil, s) {
			next, err := sys.FireRule(s, r, env)
			if err != nil {
				t.Fatalf("fire %q: %v", sys.RuleName(r), err)
			}
			offer(next)
		}
	}
	return len(seen), offered, tried
}
