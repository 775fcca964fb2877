package symmetry_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"verc3/internal/msi"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// TestPermutationsCount checks |Permutations(n)| = n! with all entries
// distinct bijections.
func TestPermutationsCount(t *testing.T) {
	fact := 1
	for n := 0; n <= 5; n++ {
		if n > 0 {
			fact *= n
		}
		ps := symmetry.Permutations(n)
		if len(ps) != fact {
			t.Fatalf("n=%d: %d permutations, want %d", n, len(ps), fact)
		}
		seen := map[string]bool{}
		for _, p := range ps {
			k := fmt.Sprint(p)
			if seen[k] {
				t.Fatalf("n=%d: duplicate permutation %v", n, p)
			}
			seen[k] = true
			hit := make([]bool, n)
			for _, v := range p {
				if v < 0 || v >= n || hit[v] {
					t.Fatalf("n=%d: not a bijection: %v", n, p)
				}
				hit[v] = true
			}
		}
	}
}

// TestComposeInvert checks the group identities p∘p⁻¹ = id and
// (a∘b)⁻¹ = b⁻¹∘a⁻¹.
func TestComposeInvert(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a, b := rng.Perm(n), rng.Perm(n)
		if !symmetry.Identity(symmetry.Compose(a, symmetry.Invert(a))) {
			return false
		}
		lhs := symmetry.Invert(symmetry.Compose(a, b))
		rhs := symmetry.Compose(symmetry.Invert(b), symmetry.Invert(a))
		return fmt.Sprint(lhs) == fmt.Sprint(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// vecState is a tiny permutable state: a vector of agent-local values.
type vecState struct{ vals []int }

func (v *vecState) Key() string {
	return fmt.Sprint(v.vals)
}
func (v *vecState) Clone() ts.State {
	return &vecState{vals: append([]int(nil), v.vals...)}
}
func (v *vecState) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v.vals)))
	for _, val := range v.vals {
		dst = binary.AppendVarint(dst, int64(val))
	}
	return dst
}
func (v *vecState) NumAgents() int { return len(v.vals) }
func (v *vecState) PermuteInto(dst ts.State, perm []int) {
	d := dst.(*vecState)
	for i, val := range v.vals {
		d.vals[perm[i]] = val
	}
}

// TestCanonicalKeyInvariance is the crucial soundness property: all states
// in one symmetry orbit share a single canonical key, and states in
// different orbits (different value multisets here) do not.
func TestCanonicalKeyInvariance(t *testing.T) {
	c := symmetry.NewCanonicalizer(4)
	f := func(a, b, cc, d uint8) bool {
		s := &vecState{vals: []int{int(a % 3), int(b % 3), int(cc % 3), int(d % 3)}}
		want := c.Key(s)
		for _, p := range symmetry.Permutations(4) {
			if c.Key(symmetry.Permuted(s, p)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOrbitSize checks Orbit counts distinct permuted keys: a fully
// symmetric state has orbit 1; an all-distinct state has orbit n!.
func TestOrbitSize(t *testing.T) {
	c := symmetry.NewCanonicalizer(3)
	if got := c.Orbit(&vecState{vals: []int{7, 7, 7}}); got != 1 {
		t.Errorf("uniform orbit = %d, want 1", got)
	}
	if got := c.Orbit(&vecState{vals: []int{1, 2, 3}}); got != 6 {
		t.Errorf("distinct orbit = %d, want 6", got)
	}
}

// plainState does not implement Permutable.
type plainState struct{ k string }

func (p plainState) Key() string               { return p.k }
func (p plainState) AppendKey(d []byte) []byte { return append(d, p.k...) }
func (p plainState) Clone() ts.State           { return p }

// TestNonPermutableFallsBack checks non-permutable states keep their key.
func TestNonPermutableFallsBack(t *testing.T) {
	c := symmetry.NewCanonicalizer(3)
	if got := c.Key(plainState{k: "zzz"}); got != "zzz" {
		t.Errorf("Key = %q, want zzz", got)
	}
	if got := c.Orbit(plainState{k: "zzz"}); got != 1 {
		t.Errorf("Orbit = %d, want 1", got)
	}
}

// TestNegativePanics documents the contract.
func TestNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	symmetry.Permutations(-1)
}

// appendVecState is vecState under a second concrete type, for the tests
// that fingerprint through the binary path.
type appendVecState struct{ vecState }

func (v *appendVecState) Clone() ts.State {
	return &appendVecState{vecState{vals: append([]int(nil), v.vals...)}}
}

func (v *appendVecState) PermuteInto(dst ts.State, perm []int) {
	v.vecState.PermuteInto(&dst.(*appendVecState).vecState, perm)
}

// TestFingerprintOrbitInvariance is the binary-path soundness property:
// every member of a symmetry orbit fingerprints identically, and states
// with different value multisets (distinct orbits) fingerprint apart.
func TestFingerprintOrbitInvariance(t *testing.T) {
	c := symmetry.NewCanonicalizer(4)
	seen := map[statespace.Fingerprint][]int{}
	for _, vals := range [][]int{
		{0, 0, 0, 0}, {1, 0, 0, 0}, {1, 1, 0, 0}, {2, 1, 0, 0},
		{1, 2, 3, 4}, {4, 4, 4, 1}, {0, 2, 0, 2},
	} {
		s := &appendVecState{vecState{vals: vals}}
		want := c.Fingerprint(s)
		for _, p := range symmetry.Permutations(4) {
			if got := c.Fingerprint(symmetry.Permuted(s, p)); got != want {
				t.Fatalf("vals=%v perm=%v: fingerprint %x, want %x", vals, p, got, want)
			}
		}
		if prev, dup := seen[want]; dup {
			t.Fatalf("distinct multisets %v and %v share fingerprint %x", prev, vals, want)
		}
		seen[want] = vals
	}
}

// TestFingerprintZeroAlloc pins the scratch-state contract on the real
// case study: canonicalizing an MSI state with in-flight network messages
// allocates nothing in steady state, however many arrangements the state's
// tie classes leave to try — one when all five caches differ, 2!·2! on a
// mixed state, and all 120 when the five caches are tied in I, the worst
// case. The arrangement's index slices live in the pooled scratch with the
// PermuteInto destination and the key buffers. A small tolerance absorbs the GC
// occasionally reclaiming the sync.Pool scratch.
func TestFingerprintZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops Puts under -race; steady-state allocs are only meaningful without it")
	}
	net := msi.NewNet(
		msi.Msg{Kind: msi.MsgGetS, Src: 1, Dst: 5, Req: -1, Val: 0},
		msi.Msg{Kind: msi.MsgData, Src: 5, Dst: 2, Req: -1, Cnt: 1, Val: 1},
	)
	for _, tc := range []struct {
		name   string
		caches []msi.Cache
	}{
		{"all-distinct", []msi.Cache{{St: msi.CacheM, Data: 1}, {St: msi.CacheISD}, {St: msi.CacheS, Data: 1}, {St: msi.CacheIMAD, Acks: 1}, {}}},
		{"mixed", []msi.Cache{{St: msi.CacheS, Data: 1}, {St: msi.CacheISD}, {St: msi.CacheS, Data: 1}, {}, {}}},
		{"all-tied", make([]msi.Cache, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &msi.State{
				Caches: tc.caches,
				Dir:    msi.Dir{St: msi.DirS, Owner: msi.None, Pending: msi.None, Sharers: 0b00101, Mem: 1},
				Net:    net.Copy(),
				Ghost:  1,
			}
			c := symmetry.NewCanonicalizer(len(st.Caches))
			want := c.Fingerprint(st) // warm the pooled scratch
			avg := testing.AllocsPerRun(500, func() {
				if c.Fingerprint(st) != want {
					t.Fatal("fingerprint not deterministic")
				}
			})
			if avg > 0.1 {
				t.Errorf("canonical fingerprint allocates %.3f allocs/op in steady state, want ~0", avg)
			}
		})
	}
}

// TestFingerprintConcurrent exercises the pooled scratch under the
// parallel driver's sharing pattern: one canonicalizer, many workers
// fingerprinting members of the same orbit concurrently. Meaningful under
// -race (the per-call scratch must never be visible to two workers).
func TestFingerprintConcurrent(t *testing.T) {
	c := symmetry.NewCanonicalizer(4)
	base := &appendVecState{vecState{vals: []int{0, 1, 2, 1}}}
	want := c.Fingerprint(base)
	perms := symmetry.Permutations(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := perms[(w*7+i)%len(perms)]
				if got := c.Fingerprint(symmetry.Permuted(base, p)); got != want {
					t.Errorf("worker %d: fingerprint %x, want %x", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCanonicalizerConcurrent exercises the goroutine-safety contract the
// parallel exploration driver (internal/mc with Options.Workers > 1) relies
// on: one shared Canonicalizer, many workers canonicalizing members of the
// same orbit concurrently. Meaningful under -race.
func TestCanonicalizerConcurrent(t *testing.T) {
	c := symmetry.NewCanonicalizer(4)
	base := &vecState{vals: []int{0, 1, 2, 1}}
	want := c.Key(base)
	perms := symmetry.Permutations(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := perms[(w*7+i)%len(perms)]
				if got := c.Key(symmetry.Permuted(base, p)); got != want {
					t.Errorf("worker %d: Key = %q, want %q", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
