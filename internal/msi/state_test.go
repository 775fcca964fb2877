package msi_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"verc3/internal/msi"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// randomState builds a structurally plausible random MSI state.
func randomState(rng *rand.Rand, n int) *msi.State {
	st := &msi.State{
		Caches: make([]msi.Cache, n),
		Dir: msi.Dir{
			St:      msi.DirState(rng.Intn(7)),
			Owner:   int8(rng.Intn(n+1) - 1),
			Pending: int8(rng.Intn(n+1) - 1),
			Sharers: uint8(rng.Intn(1 << n)),
			Mem:     int8(rng.Intn(2)),
		},
		Ghost: int8(rng.Intn(2)),
	}
	for i := range st.Caches {
		st.Caches[i] = msi.Cache{
			St:   msi.CacheState(rng.Intn(7)),
			Data: int8(rng.Intn(2)),
			Acks: int8(rng.Intn(3)),
		}
	}
	kinds := []msi.MsgKind{msi.MsgGetS, msi.MsgGetM, msi.MsgData, msi.MsgInv, msi.MsgInvAck, msi.MsgAck}
	for k := rng.Intn(5); k > 0; k-- {
		st.Net.SendInPlace(msi.Msg{
			Kind: kinds[rng.Intn(len(kinds))],
			Src:  int8(rng.Intn(n + 1)),
			Dst:  int8(rng.Intn(n + 1)),
			Req:  int8(rng.Intn(n+1) - 1),
			Cnt:  int8(rng.Intn(2)),
			Val:  int8(rng.Intn(2)),
		})
	}
	return st
}

// TestStatePermuteGroupAction: identity fixes the key; p then p⁻¹
// round-trips; the canonical key is orbit-invariant.
func TestStatePermuteGroupAction(t *testing.T) {
	const n = 3
	canon := symmetry.NewCanonicalizer(n)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomState(rng, n)
		id := []int{0, 1, 2}
		if symmetry.Permuted(st, id).Key() != st.Key() {
			return false
		}
		p := rng.Perm(n)
		there := symmetry.Permuted(st, p).(*msi.State)
		if symmetry.Permuted(there, symmetry.Invert(p)).Key() != st.Key() {
			return false
		}
		return canon.Key(there) == canon.Key(st)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStateCloneIndependence: mutating a clone leaves the original intact.
func TestStateCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := randomState(rng, 3)
	key := st.Key()
	cp := st.Clone().(*msi.State)
	cp.Caches[0].St = msi.CacheM
	cp.Dir.Owner = 0
	cp.Net.SendInPlace(msi.Msg{Kind: msi.MsgAck, Src: 0, Dst: 3})
	cp.Ghost ^= 1
	cp.Err = "poked"
	if st.Key() != key {
		t.Error("clone mutation leaked into original")
	}
	if cp.Key() == key {
		t.Error("clone mutations did not change its key")
	}
}

// TestKeyDistinguishesFields: flipping each field alone changes the key
// (injectivity spot checks — a collision here would merge distinct states
// in the visited set and unsoundly prune reachable behaviour).
func TestKeyDistinguishesFields(t *testing.T) {
	base := func() *msi.State {
		return &msi.State{Caches: make([]msi.Cache, 2), Dir: msi.Dir{Owner: msi.None, Pending: msi.None}}
	}
	mutations := map[string]func(*msi.State){
		"cache-state": func(s *msi.State) { s.Caches[1].St = msi.CacheS },
		"cache-data":  func(s *msi.State) { s.Caches[1].Data = 1 },
		"cache-acks":  func(s *msi.State) { s.Caches[1].Acks = 1 },
		"dir-state":   func(s *msi.State) { s.Dir.St = msi.DirM },
		"dir-owner":   func(s *msi.State) { s.Dir.Owner = 1 },
		"dir-pending": func(s *msi.State) { s.Dir.Pending = 0 },
		"dir-sharers": func(s *msi.State) { s.Dir.Sharers = 2 },
		"dir-mem":     func(s *msi.State) { s.Dir.Mem = 1 },
		"ghost":       func(s *msi.State) { s.Ghost = 1 },
		"net":         func(s *msi.State) { s.Net.SendInPlace(msi.Msg{Kind: msi.MsgGetS, Src: 0, Dst: 2}) },
		"err":         func(s *msi.State) { s.Err = "x" },
	}
	ref := base().Key()
	for name, mut := range mutations {
		s := base()
		mut(s)
		if s.Key() == ref {
			t.Errorf("%s: key unchanged by mutation", name)
		}
	}
}

// TestKeyTextMatchesFmt: Key is built with strconv into one buffer; on every
// state reachable in msi-complete and msi-large (holes left as wildcards)
// at 2 and 3 caches, and on each of those states poisoned with an error,
// it must equal, byte for byte, the fmt form it replaced — the trace
// goldens and the exactness oracle compare these strings.
func TestKeyTextMatchesFmt(t *testing.T) {
	for _, v := range []msi.Variant{msi.Complete, msi.Large} {
		for _, caches := range []int{2, 3} {
			sys := msi.New(msi.Config{Caches: caches, Variant: v})
			env := ts.NewEnv(wildcardChooser{})
			seen := map[string]bool{}
			queue := sys.Initial()
			var rules []ts.Rule
			for len(queue) > 0 {
				st := queue[0]
				queue = queue[1:]
				k := string(st.AppendKey(nil))
				if seen[k] {
					continue
				}
				seen[k] = true
				s := st.(*msi.State)
				checkKeyText(t, s)
				poisoned := s.Clone().(*msi.State)
				poisoned.Err = "unhandled"
				checkKeyText(t, poisoned)
				rules = sys.AppendRules(rules[:0], st)
				for _, r := range rules {
					next, err := sys.FireRule(st, r, env)
					if errors.Is(err, ts.ErrWildcard) {
						continue
					}
					if err != nil {
						t.Fatalf("%v/%d: %s: %v", v, caches, sys.RuleName(r), err)
					}
					queue = append(queue, next)
				}
			}
			t.Logf("%v at %d caches: %d states", v, caches, len(seen))
		}
	}
}

// checkKeyText compares s.Key with the fmt form it was built with before,
// when a message carried its type as a string.
func checkKeyText(t *testing.T, s *msi.State) {
	t.Helper()
	var b strings.Builder
	for _, c := range s.Caches {
		fmt.Fprintf(&b, "%d.%d.%d|", c.St, c.Data, c.Acks)
	}
	fmt.Fprintf(&b, "D%d.%d.%d.%d.%d|G%d|", s.Dir.St, s.Dir.Owner, s.Dir.Pending, s.Dir.Sharers, s.Dir.Mem, s.Ghost)
	for i, m := range s.Net.Messages() {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d", m.Kind, m.Src, m.Dst, m.Req, m.Cnt, m.Val)
	}
	if s.Err != "" {
		b.WriteString("|E:")
		b.WriteString(s.Err)
	}
	if got, want := s.Key(), b.String(); got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

// wildcardChooser leaves every hole unassigned.
type wildcardChooser struct{}

func (wildcardChooser) Choose(string, []string) (int, error) { return 0, ts.ErrWildcard }

// TestConfigValidation: cache-count bounds panic loudly.
func TestConfigValidation(t *testing.T) {
	for _, bad := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("caches=%d: want panic", bad)
				}
			}()
			msi.New(msi.Config{Caches: bad})
		}()
	}
	if sys := msi.New(msi.Config{}); len(sys.Initial()[0].(*msi.State).Caches) != 3 {
		t.Error("default caches != 3")
	}
	if msi.New(msi.Config{Caches: 2}).DirID() != 2 {
		t.Error("DirID != cache count")
	}
}

// TestVariantNames pins the display names used in reports.
func TestVariantNames(t *testing.T) {
	for v, want := range map[msi.Variant]string{
		msi.Complete: "MSI-complete", msi.Small: "MSI-small", msi.Large: "MSI-large",
	} {
		if v.String() != want {
			t.Errorf("%v", v)
		}
	}
}

// TestErrStatesAreTerminal: poisoned states expand to nothing.
func TestErrStatesAreTerminal(t *testing.T) {
	sys := msi.New(msi.Config{Caches: 2, Variant: msi.Complete})
	st := sys.Initial()[0].(*msi.State).Clone().(*msi.State)
	st.Err = "boom"
	if got := sys.AppendRules(nil, st); len(got) != 0 {
		t.Errorf("poisoned state has %d transitions", len(got))
	}
}
