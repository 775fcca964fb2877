package zoo_test

// The model laws, written once. TestZooConformance walks every system the
// zoo builds — and through them every committed spec — and checks on the
// states it reaches each law the checker's kernel and its symmetry
// reduction rely on, one subtest per law.

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/spec"
	"verc3/internal/symmetry"
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

// wideSpec is a three-process symmetric model whose layout exercises every
// branch of the spec comparer: a 4-byte little-endian slot array (255
// encodes above 510: byte order is not numeric order), a 1-byte array, then
// a pid array — where the comparer must stop — followed by an array it must
// therefore ignore, and a scalar pid.
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

// population is what the walk of one system reached: up to 300 distinct
// states with the encodings the walk found them with, and the candidates
// it fired every rule under.
type population struct {
	name   string
	sys    ts.System
	sketch bool
	envs   []*ts.Env
	states []ts.State
	encs   [][]byte
}

// encodes fails the test unless s encodes as want.
func encodes(t *testing.T, s ts.State, want []byte, format string, args ...any) {
	t.Helper()
	if got := s.AppendKey(nil); !bytes.Equal(got, want) {
		t.Fatalf(format+": encodes %x, want %x", append(args, got, want)...)
	}
}

// intact fails the test when walked state i no longer encodes as it did.
func (p *population) intact(t *testing.T, what string, i int) {
	t.Helper()
	encodes(t, p.states[i], p.encs[i], "%s moved state %d %q", what, i, p.states[i].Key())
}

// laws lists the model laws in the order they run; the symmetric ones run
// on models whose states are ts.Permutable.
var laws = []struct {
	name      string
	symmetric bool
	check     func(*testing.T, *population)
}{
	{"rules", false, ruleLaws},
	{"keying", false, keyingLaw},
	{"ownership", false, ownershipLaw},
	{"recycling", false, recyclingLaw},
	{"renaming", true, renamingLaw},
	{"comparer", true, comparerLaw},
	{"equivariance", true, equivarianceLaw},
}

// TestZooConformance checks the model laws on every zoo entry at two
// caches, on msi-complete at three to five caches (five only without
// -short), and on wideSpec, which no zoo entry builds. A sketch is walked
// under four partial candidates at once, a complete model under one.
func TestZooConformance(t *testing.T) {
	var pops []*population
	add := func(name string, sys ts.System, err error, sketch bool) {
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, &population{name: name, sys: sys, sketch: sketch})
	}
	for _, name := range zoo.Names() {
		sys, err := zoo.Get(name, zoo.Params{Caches: 2})
		add(name+"/caches=2", sys, err, zoo.IsSketch(name))
	}
	for _, caches := range []int{3, 4, 5} {
		if caches == 5 && testing.Short() {
			continue
		}
		sys, err := zoo.Get("msi-complete", zoo.Params{Caches: caches})
		add(fmt.Sprintf("msi-complete/caches=%d", caches), sys, err, false)
	}
	wide, err := spec.Parse([]byte(wideSpec))
	if err != nil {
		t.Fatal(err)
	}
	add("spec/wide", wide.System(), nil, false)

	symmetric := 0
	for _, p := range pops {
		seeds := 1
		if p.sketch {
			seeds = 4
		}
		for seed := 0; seed < seeds; seed++ {
			p.envs = append(p.envs, ts.NewEnv(partialChooser(seed)))
		}
		p.states = walk(t, p.sys, p.envs, 300, func(s ts.State) string { return string(s.AppendKey(nil)) })
		for _, s := range p.states {
			p.encs = append(p.encs, s.AppendKey(nil))
		}
		_, sym := p.states[0].(ts.Permutable)
		if sym {
			symmetric++
		}
		t.Run(p.name, func(t *testing.T) {
			if len(p.states) < 2 {
				t.Fatalf("walk reached only %d states", len(p.states))
			}
			for _, law := range laws {
				if sym || !law.symmetric {
					t.Run(law.name, func(t *testing.T) { law.check(t, p) })
				}
			}
		})
	}
	if symmetric < 10 {
		t.Errorf("only %d symmetric models covered; the zoo or the specs stopped offering ts.Permutable", symmetric)
	}
}

// walk explores sys breadth-first from its initial states, firing every
// enabled rule under each candidate in envs and passing over wildcard
// aborts. It calls key once on every state offered — initial states and
// successors, duplicates included — and admits a state whose key it has
// not seen, until it holds limit states (0: no limit). It returns the
// admitted states in the order it admitted them.
func walk(t *testing.T, sys ts.System, envs []*ts.Env, limit int, key func(ts.State) string) []ts.State {
	t.Helper()
	seen := map[string]bool{}
	var states []ts.State
	room := func() bool { return limit == 0 || len(states) < limit }
	offer := func(s ts.State) {
		if k := key(s); !seen[k] && room() {
			seen[k] = true
			states = append(states, s)
		}
	}
	for _, s := range sys.Initial() {
		offer(s)
	}
	for head := 0; head < len(states) && room(); head++ {
		for _, r := range sys.AppendRules(nil, states[head]) {
			for _, env := range envs {
				next, err := sys.FireRule(states[head], r, env)
				if err != nil && !errors.Is(err, ts.ErrWildcard) {
					t.Fatalf("fire %q: %v", sys.RuleName(r), err)
				}
				if err == nil {
					offer(next)
				}
			}
		}
	}
	return states
}

// ruleLaws checks what the kernel relies on when it enumerates a state's
// records into a reused buffer, fires each once and names one only when
// something shows it: AppendRules appends after whatever the buffer
// already holds without touching it; two enumerations give equal records
// with equal names; firing a record twice gives byte-equal successors, or
// two wildcard aborts; and firing leaves the source state's encoding
// unchanged. The walk must fire something, and on a sketch abort something.
func ruleLaws(t *testing.T, p *population) {
	sentinel := []ts.Rule{{ID: 0xffff, Agent: -1, Msg: -1, Name: 0xffffffff}, {ID: 7, Agent: 3, Msg: 5, Name: 11}}
	fired, aborted := 0, 0
	for i, s := range p.states {
		buf := append(make([]ts.Rule, 0, 64), sentinel...)
		rules := p.sys.AppendRules(buf, s)
		if !slices.Equal(buf, sentinel) || !slices.Equal(rules[:len(sentinel)], sentinel) {
			t.Fatalf("state %q: AppendRules overwrote the buffer's prefix", s.Key())
		}
		rules = rules[len(sentinel):]
		again := p.sys.AppendRules(nil, s)
		if !slices.Equal(again, rules) {
			t.Fatalf("state %q: enumerated %v, then %v", s.Key(), rules, again)
		}
		for k, r := range rules {
			name := p.sys.RuleName(r)
			if other := p.sys.RuleName(again[k]); other != name {
				t.Fatalf("state %q, %v: named %q, then %q", s.Key(), r, name, other)
			}
			for _, env := range p.envs {
				a, errA := p.sys.FireRule(s, r, env)
				b, errB := p.sys.FireRule(s, r, env)
				p.intact(t, "firing "+name, i)
				if errA != nil || errB != nil {
					if !errors.Is(errA, ts.ErrWildcard) || !errors.Is(errB, ts.ErrWildcard) {
						t.Fatalf("state %q, %q: errors %v / %v, want two wildcard aborts", s.Key(), name, errA, errB)
					}
					aborted++
					continue
				}
				fired++
				encodes(t, b, a.AppendKey(nil), "state %q, %q: the second successor %q", s.Key(), name, b.Key())
			}
		}
	}
	if fired == 0 || (p.sketch && aborted == 0) {
		t.Errorf("walk fired %d transitions and aborted %d: nothing compared", fired, aborted)
	}
}

// keyingLaw: two states have equal AppendKey encodings exactly when they
// have equal Key() strings, over the walked states and, on a symmetric
// model, two random renamings of each.
func keyingLaw(t *testing.T, p *population) {
	rng := rand.New(rand.NewSource(1))
	byKey, byEnc := map[string]string{}, map[string]string{}
	add := func(s ts.State) {
		k, enc := s.Key(), string(s.AppendKey(nil))
		if prev, ok := byKey[k]; ok && prev != enc {
			t.Fatalf("key %q encoded as %x and as %x", k, prev, enc)
		}
		if prev, ok := byEnc[enc]; ok && prev != k {
			t.Fatalf("keys %q and %q share encoding %x", prev, k, enc)
		}
		byKey[k], byEnc[enc] = enc, k
	}
	for _, s := range p.states {
		add(s)
		if ps, ok := s.(ts.Permutable); ok {
			add(symmetry.Permuted(ps, rng.Perm(ps.NumAgents())))
			add(symmetry.Permuted(ps, rng.Perm(ps.NumAgents())))
		}
	}
}

// ownershipLaw: whatever is written into a state's Clone — another state
// through CopyFrom, a renaming of another state through PermuteInto,
// messages through the MSI network's in-place operations — the original's
// encoding must not move, and neither must the state that was copied from.
func ownershipLaw(t *testing.T, p *population) {
	rng := rand.New(rand.NewSource(3))
	for i, s := range p.states {
		j := (i + 1 + rng.Intn(len(p.states)-1)) % len(p.states) // some other state
		c := s.Clone()
		encodes(t, c, p.encs[i], "Clone of state %d", i)
		if cp, ok := c.(interface{ CopyFrom(ts.State) }); ok {
			cp.CopyFrom(p.states[j])
			p.intact(t, "CopyFrom into a Clone", i)
			encodes(t, c, p.encs[j], "CopyFrom(state %d)", j)
		}
		if o, ok := p.states[j].(ts.Permutable); ok {
			o.PermuteInto(c, rng.Perm(o.NumAgents()))
			p.intact(t, "PermuteInto a Clone", i)
		}
		if m, ok := c.(*msi.State); ok {
			m.Net.SendInPlace(msi.Msg{Kind: msi.MsgAck, Src: 0, Dst: 1, Req: msi.None})
			m.Net.RemoveInPlace(0)
			p.intact(t, "SendInPlace/RemoveInPlace on a Clone's network", i)
		}
		p.intact(t, "writing into another state's Clone", j)
	}
}

// recyclingLaw churns a ts.Recycler's pool — every successor of every
// walked state fired and handed back, three times over — and then requires
// every walked state, all of which the test still holds, to encode as it
// did: storage the pool serves again belongs to nobody else.
func recyclingLaw(t *testing.T, p *population) {
	rec, ok := p.sys.(ts.Recycler)
	if !ok {
		t.Skip("not a ts.Recycler")
	}
	var dead []ts.State
	for round := 0; round < 3; round++ {
		for _, s := range p.states {
			for _, r := range p.sys.AppendRules(nil, s) {
				for _, env := range p.envs {
					if next, err := p.sys.FireRule(s, r, env); err == nil {
						dead = append(dead, next)
					}
				}
			}
			for _, d := range dead {
				rec.Recycle(d)
			}
			dead = dead[:0]
		}
	}
	for i := range p.states {
		p.intact(t, "churning the successor pool", i)
	}
	if hits, _ := p.envs[0].PoolTraffic(); hits == 0 {
		t.Error("the pool served no recycled state: nothing churned")
	}
}

// renamingLaw: PermuteInto with the identity is a no-op, a permutation
// followed by its inverse is the identity, the renamed state keeps
// NumAgents, and the source is never modified — through one destination
// per direction, reused across all states so that stale contents of every
// shape get overwritten.
func renamingLaw(t *testing.T, p *population) {
	rng := rand.New(rand.NewSource(5))
	n := p.states[0].(ts.Permutable).NumAgents()
	id := symmetry.Permutations(n)[0] // the identity comes first
	there, back := p.states[0].Clone(), p.states[len(p.states)-1].Clone()
	for i, st := range p.states {
		s := st.(ts.Permutable)
		if s.NumAgents() != n {
			t.Fatalf("state %d has %d agents, the initial state %d", i, s.NumAgents(), n)
		}
		s.PermuteInto(there, id)
		encodes(t, there, p.encs[i], "state %d %q renamed by the identity", i, st.Key())
		perm := rng.Perm(n)
		s.PermuteInto(there, perm)
		if got := there.(ts.Permutable).NumAgents(); got != n {
			t.Fatalf("state %d renamed by %v has %d agents, want %d", i, perm, got, n)
		}
		there.(ts.Permutable).PermuteInto(back, symmetry.Invert(perm))
		encodes(t, back, p.encs[i], "state %d %q renamed by %v, then by its inverse", i, st.Key(), perm)
		p.intact(t, "PermuteInto", i)
	}
}

// exhaustive hides ts.AgentComparer, so Fingerprint searches all N!
// permutations of the wrapped state.
type exhaustive struct{ ts.Permutable }

// comparerLaw walks the model under symmetry reduction — in full for a
// complete model, 2,000 states of a sketch — and on every offered state,
// duplicates included, holds CompareAgents to its contract: a total
// preorder, equivariant under a random renaming, and with the leading-block
// property, which makes the pruned fingerprint equal the exhaustive
// minimum over all N! renamings. A complete model's walk must reach
// exactly the states mc.Check reports, so it is the full exploration. The
// log gives the mean number of encodings compared per call — the product
// of the tie classes' factorials, which symmetry's
// TestFingerprintTriesOnlyTiePermutations pins — the figure EXPERIMENTS.md
// E19 quotes.
func comparerLaw(t *testing.T, p *population) {
	n := p.states[0].(ts.Permutable).NumAgents()
	canon := symmetry.NewCanonicalizer(n)
	rng := rand.New(rand.NewSource(7))
	offered, tried := 0, 0
	key := func(st ts.State) string {
		s, ok := st.(interface {
			ts.Permutable
			ts.AgentComparer
		})
		if !ok {
			t.Fatalf("state %T is symmetric but lacks ts.AgentComparer", st)
		}
		offered++
		fp := canon.Fingerprint(s)
		if full := canon.Fingerprint(exhaustive{s}); full != fp {
			t.Fatalf("pruned fingerprint %x, exhaustive %x\n state: %v", fp, full, st)
		}
		perm := rng.Perm(n)
		ps := symmetry.Permuted(s, perm).(ts.AgentComparer)
		c := func(i, j int) int { return cmp.Compare(s.CompareAgents(i, j), 0) }
		arrangements := 1
		for i := 0; i < n; i++ {
			tied := 0 // agents j <= i tied with i: 1, 2, … along each tie class
			for j := 0; j < n; j++ {
				if j <= i && c(i, j) == 0 {
					tied++
				}
				if c(i, j) != -c(j, i) {
					t.Fatalf("CompareAgents(%d, %d) and (%d, %d) disagree\n state: %v", i, j, j, i, st)
				}
				if cmp.Compare(ps.CompareAgents(perm[i], perm[j]), 0) != c(i, j) {
					t.Fatalf("perm %v: CompareAgents(π·s, π(%d), π(%d)) differs from CompareAgents(s, %d, %d)\n state: %v",
						perm, i, j, i, j, st)
				}
				for k := 0; k < n; k++ {
					if c(i, j) <= 0 && c(j, k) <= 0 && c(i, k) > 0 {
						t.Fatalf("CompareAgents is not transitive on agents %d, %d, %d\n state: %v", i, j, k, st)
					}
				}
			}
			arrangements *= tied
		}
		tried += arrangements
		return fmt.Sprint(fp)
	}
	limit := 0
	if p.sketch {
		limit = 2000
	}
	states := len(walk(t, p.sys, p.envs, limit, key))
	t.Logf("%d states, %d offered, %.2f encodings compared per call", states, offered, float64(tried)/float64(offered))
	if p.sketch {
		return
	}
	res, err := mc.NewSession(p.sys, mc.Options{Symmetry: true}).Check(context.Background(), p.envs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success || res.Stats.VisitedStates != states {
		t.Errorf("walk reached %d states; mc.Check: %v, %d states", states, res.Verdict, res.Stats.VisitedStates)
	}
}

// equivarianceLaw is the law symmetry reduction is sound by (Ip and Dill,
// "Better verification through symmetry", 1996): renaming agents commutes
// with the transition relation. For every walked state s and a random
// renaming π, the successors of π·s under each candidate, as a sorted
// multiset of keys with one entry per wildcard abort, equal π applied to
// the successors of s; and the invariants' conjunction and Quiescent
// answer the same on s and π·s.
func equivarianceLaw(t *testing.T, p *population) {
	rng := rand.New(rand.NewSource(11))
	safe := func(s ts.State) bool {
		return !slices.ContainsFunc(p.sys.Invariants(), func(inv ts.Invariant) bool { return !inv.Holds(s) })
	}
	q, _ := p.sys.(ts.QuiescentReporter)
	for _, st := range p.states {
		s := st.(ts.Permutable)
		perm := rng.Perm(s.NumAgents())
		ps := symmetry.Permuted(s, perm)
		for _, env := range p.envs {
			if want, got := successors(t, p, s, env, perm), successors(t, p, ps, env, nil); !slices.Equal(got, want) {
				t.Fatalf("state %q renamed by %v: renaming its successors gives\n  %q\nbut the renamed state's successors are\n  %q",
					s.Key(), perm, want, got)
			}
		}
		if safe(s) != safe(ps) || (q != nil && q.Quiescent(s) != q.Quiescent(ps)) {
			t.Fatalf("state %q renamed by %v: the invariants or Quiescent answer differently", s.Key(), perm)
		}
	}
}

// successors returns the sorted keys of s's successors under env, each
// renamed by perm unless perm is nil, with "abort" for a wildcard abort.
func successors(t *testing.T, p *population, s ts.State, env *ts.Env, perm []int) []string {
	var out []string
	for _, r := range p.sys.AppendRules(nil, s) {
		next, err := p.sys.FireRule(s, r, env)
		switch {
		case errors.Is(err, ts.ErrWildcard):
			out = append(out, "abort")
		case err != nil:
			t.Fatalf("fire %q: %v", p.sys.RuleName(r), err)
		case perm != nil:
			out = append(out, symmetry.Permuted(next.(ts.Permutable), perm).Key())
		default:
			out = append(out, next.Key())
		}
	}
	slices.Sort(out)
	return out
}
