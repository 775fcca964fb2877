package msi_test

// Tests for the binary keying capabilities of the MSI state: AppendKey's
// agreement with Key, and CompareAgents' contract with AppendKey — what the
// zero-allocation canonical fingerprinting pipeline (internal/symmetry)
// relies on. Clone privacy and PermuteInto are covered zoo-wide
// (internal/symmetry: TestZooCloneIsPrivate, TestZooPermuteIntoRoundTrip).

import (
	"bytes"
	"testing"

	"verc3/internal/msi"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
)

// stateFromBytes deterministically decodes an arbitrary byte string into a
// structurally valid 3-cache MSI state: every field is drawn from the next
// input byte (reduced into its range where the model requires it, left
// nearly raw where Key renders any value), and up to four in-flight
// messages are drawn with kinds from the closed set. The point is coverage
// of the encoding space, not protocol plausibility.
func stateFromBytes(data []byte) *msi.State {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	s := &msi.State{Caches: make([]msi.Cache, 3)}
	for i := range s.Caches {
		s.Caches[i] = msi.Cache{
			St:   msi.CacheState(next() % 7),
			Data: int8(next() % 3),
			Acks: int8(next()%7) - 3,
		}
	}
	s.Dir = msi.Dir{
		St:      msi.DirState(next() % 7),
		Owner:   int8(next()%5) - 1,
		Pending: int8(next()%5) - 1,
		Sharers: next(),
		Mem:     int8(next() % 3),
	}
	s.Ghost = int8(next() % 3)
	if next()%4 == 0 {
		s.Err = string([]byte{next()%26 + 'a', next()%26 + 'a'})
	}
	var msgs []msi.Msg
	for n := next() % 5; n > 0; n-- {
		msgs = append(msgs, msi.Msg{
			Kind: msi.MsgKind(next() % 8),
			Src:  int8(next()%6) - 1,
			Dst:  int8(next()%6) - 1,
			Req:  int8(next()%6) - 1,
			Cnt:  int8(next()%5) - 2,
			Val:  int8(next() % 3),
		})
	}
	s.Net = msi.NewNet(msgs...)
	return s
}

// FuzzAppendKeyInjective fuzzes the injectivity direction the checker's
// soundness needs: two randomized states with distinct Key() strings must
// produce distinct AppendKey encodings (a shared encoding would merge two
// distinct states in the visited set). With message kinds a closed set
// the converse holds too — equal Key() strings, equal encodings — so the
// two keys are checked to agree both ways.
func FuzzAppendKeyInjective(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3})
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte("some longer seed input with message bytes"), []byte{0xff, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, sb := stateFromBytes(a), stateFromBytes(b)
		ea, eb := sa.AppendKey(nil), sb.AppendKey(nil)
		if sa.Key() != sb.Key() && bytes.Equal(ea, eb) {
			t.Errorf("distinct keys share an encoding:\n key a: %q\n key b: %q\n enc: %x", sa.Key(), sb.Key(), ea)
		}
		if sa.Key() == sb.Key() && !bytes.Equal(ea, eb) {
			t.Errorf("one key, distinct encodings:\n key: %q\n enc a: %x\n enc b: %x", sa.Key(), ea, eb)
		}
	})
}

// FuzzCompareAgents fuzzes the two halves of the ts.AgentComparer contract
// on randomized states (negative Acks, out-of-range owners and message
// endpoints included). Equivariance: renaming the caches renames the answer,
// CompareAgents(π·s, π(i), π(j)) has the sign of CompareAgents(s, i, j).
// Leading block: the fingerprint the canonicalizer reaches by sorting the
// caches and permuting within ties is the fingerprint of the smallest
// encoding over all 3! permutations, computed here the long way. The
// generator's raw sharer byte is cut to the three caches there are:
// PermuteInto drops sharer bits that name no cache, so on such a state it
// is not a renaming at all (the identity permutation already changes it).
func FuzzCompareAgents(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 4, 5, 6}, uint8(4))
	f.Add([]byte{2, 1, 6, 2, 1, 0, 2, 1, 6, 3, 4, 2, 0xa5}, uint8(3))
	f.Add([]byte("some longer seed input with message bytes"), uint8(5))
	perms := symmetry.Permutations(3)
	canon := symmetry.NewCanonicalizer(3)
	sign := func(v int) int {
		switch {
		case v < 0:
			return -1
		case v > 0:
			return 1
		}
		return 0
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		s := stateFromBytes(data)
		s.Dir.Sharers &= 0b111
		perm := perms[int(pick)%len(perms)]
		ps := symmetry.Permuted(s, perm).(*msi.State)
		for i := range s.Caches {
			for j := range s.Caches {
				if got, want := sign(ps.CompareAgents(perm[i], perm[j])), sign(s.CompareAgents(i, j)); got != want {
					t.Fatalf("perm %v: CompareAgents(π·s, π(%d), π(%d)) = %d, CompareAgents(s, %d, %d) = %d\n s: %s",
						perm, i, j, got, i, j, want, s)
				}
			}
		}
		var min []byte
		for _, p := range perms {
			if enc := symmetry.Permuted(s, p).(*msi.State).AppendKey(nil); min == nil || bytes.Compare(enc, min) < 0 {
				min = enc
			}
		}
		if got, want := canon.Fingerprint(s), statespace.OfBytes(min); got != want {
			t.Fatalf("sorted search fingerprints %x, all 3! permutations give %x\n s: %s", got, want, s)
		}
	})
}

// TestAppendKeySensitivity flips each field of a baseline state in turn
// and checks the encoding moves — the direct probe for a field omitted
// from AppendKey but present in Key.
func TestAppendKeySensitivity(t *testing.T) {
	base := func() *msi.State {
		return &msi.State{
			Caches: []msi.Cache{{St: msi.CacheM, Data: 1}, {St: msi.CacheS, Data: 1}, {}},
			Dir:    msi.Dir{St: msi.DirM, Owner: 0, Pending: msi.None, Sharers: 0b010, Mem: 1},
			Net:    msi.NewNet(msi.Msg{Kind: msi.MsgData, Src: 0, Dst: 1, Req: -1, Cnt: 2, Val: 1}),
			Ghost:  1,
		}
	}
	ref := base().AppendKey(nil)
	mutations := map[string]func(*msi.State){
		"cache state": func(s *msi.State) { s.Caches[2].St = msi.CacheISD },
		"cache data":  func(s *msi.State) { s.Caches[0].Data = 0 },
		"cache acks":  func(s *msi.State) { s.Caches[1].Acks = 1 },
		"dir state":   func(s *msi.State) { s.Dir.St = msi.DirMS },
		"dir owner":   func(s *msi.State) { s.Dir.Owner = 2 },
		"dir pending": func(s *msi.State) { s.Dir.Pending = 1 },
		"dir sharers": func(s *msi.State) { s.Dir.Sharers = 0b011 },
		"dir mem":     func(s *msi.State) { s.Dir.Mem = 0 },
		"ghost":       func(s *msi.State) { s.Ghost = 0 },
		"err":         func(s *msi.State) { s.Err = "boom" },
		"msg type": func(s *msi.State) {
			s.Net = msi.NewNet(msi.Msg{Kind: msi.MsgInv, Src: 0, Dst: 1, Req: -1, Cnt: 2, Val: 1})
		},
		"msg cnt": func(s *msi.State) {
			s.Net = msi.NewNet(msi.Msg{Kind: msi.MsgData, Src: 0, Dst: 1, Req: -1, Cnt: 1, Val: 1})
		},
		"msg extra": func(s *msi.State) { s.Net.SendInPlace(msi.Msg{Kind: msi.MsgAck, Src: 1, Dst: 3, Req: -1}) },
	}
	for name, mutate := range mutations {
		s := base()
		mutate(s)
		if bytes.Equal(s.AppendKey(nil), ref) {
			t.Errorf("%s: mutation not visible in AppendKey", name)
		}
	}
}
