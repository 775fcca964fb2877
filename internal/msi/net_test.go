package msi

// Tests for the network: the owned multiset's operations, its binary
// keying and the closed message kind.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// genMsg builds a random message over a small agent universe.
func genMsg(rng *rand.Rand, agents int) Msg {
	kinds := []MsgKind{MsgGetS, MsgGetM, MsgData, MsgInv, MsgAck}
	return Msg{
		Kind: kinds[rng.Intn(len(kinds))],
		Src:  int8(rng.Intn(agents + 1)), // may be the directory (== agents)
		Dst:  int8(rng.Intn(agents + 1)),
		Req:  int8(rng.Intn(agents+1) - 1), // may be None
		Cnt:  int8(rng.Intn(3)),
		Val:  int8(rng.Intn(2)),
	}
}

// permuted is the sort-from-scratch oracle for permuteInto: every agent
// index below agents renamed through perm, the multiset rebuilt by NewNet.
func permuted(n Net, perm []int, agents int) Net {
	msgs := append([]Msg(nil), n.msgs...)
	for i := range msgs {
		for _, f := range []*int8{&msgs[i].Src, &msgs[i].Dst, &msgs[i].Req} {
			if *f >= 0 && int(*f) < agents {
				*f = int8(perm[*f])
			}
		}
	}
	return NewNet(msgs...)
}

// key and text are a network's binary and Key encodings, for comparisons.
func (n Net) key() []byte  { return n.appendKey(nil) }
func (n Net) text() string { return string(n.appendText(nil)) }

// checkInPlace drives one owned Net through the operations ops encodes —
// SendInPlace, RemoveInPlace and permuteInto (into a second Net that then
// becomes the one under test) — and after every step compares it with the
// same multiset rebuilt from an unsorted list by NewNet. A Copy taken before
// each step must not move.
func checkInPlace(t *testing.T, ops []byte) {
	t.Helper()
	const agents = 3
	kinds := []MsgKind{MsgGetS, MsgGetM, MsgData, MsgInv, MsgAck}
	var n, spare Net
	var ref []Msg // the multiset, unsorted
	for len(ops) >= 2 {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		snapshot := n.Copy()
		before := snapshot.text()
		switch {
		case op%4 == 3 && n.Len() > 0:
			i := int(arg) % n.Len()
			gone := n.msgs[i]
			n.RemoveInPlace(i)
			for j, m := range ref {
				if m == gone {
					ref = append(ref[:j], ref[j+1:]...)
					break
				}
			}
		case op%4 == 2:
			perm := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[arg%6]
			n.permuteInto(&spare, perm, agents)
			n, spare = spare, n
			ref = append([]Msg(nil), permuted(NewNet(ref...), perm, agents).msgs...)
		default:
			m := Msg{
				Kind: kinds[int(op>>2)%len(kinds)],
				Src:  int8(arg % (agents + 1)), // may be the directory (== agents)
				Dst:  int8((arg >> 2) % (agents + 1)),
				Req:  int8((arg>>4)%(agents+1)) - 1, // may be None
				Cnt:  int8((arg >> 6) % 2),
				Val:  int8((op >> 5) % 2),
			}
			n.SendInPlace(m)
			ref = append(ref, m)
		}
		want := NewNet(ref...)
		if !bytes.Equal(n.key(), want.key()) || n.text() != want.text() {
			t.Fatalf("after op %d/%d: have %v, the multiset rebuilt from scratch is %v", op, arg, n.msgs, want.msgs)
		}
		if snapshot.text() != before {
			t.Fatalf("op %d/%d wrote through a Copy: %q -> %q", op, arg, before, snapshot.text())
		}
	}
}

// FuzzNetInPlace checks the owned multiset's three mutators against the
// sort-from-scratch oracle on arbitrary operation sequences.
func FuzzNetInPlace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x1b, 4, 0x24, 2, 3, 3, 0, 0, 0x1b, 3, 1})
	f.Add([]byte("send, remove, permute: any bytes decode to some sequence"))
	f.Fuzz(checkInPlace)
}

// TestSendRemoveMultiset checks SendInPlace/RemoveInPlace (and permuteInto)
// behave as multiset operations regardless of order, on random sequences.
func TestSendRemoveMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 2*rng.Intn(40))
		rng.Read(ops)
		checkInPlace(t, ops)
	}
}

// TestKeyOrderIndependence checks the canonical key ignores insertion order.
func TestKeyOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		msgs := make([]Msg, 1+rng.Intn(6))
		for i := range msgs {
			msgs[i] = genMsg(rng, 3)
		}
		a := NewNet(msgs...)
		var b Net
		for _, i := range rng.Perm(len(msgs)) {
			b.SendInPlace(msgs[i])
		}
		return a.text() == b.text()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteGroupAction checks permuteInto is a group action: identity is
// a no-op and applying p then p⁻¹ round-trips.
func TestPermuteGroupAction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const agents = 3
		msgs := make([]Msg, 1+rng.Intn(6))
		for i := range msgs {
			msgs[i] = genMsg(rng, agents)
		}
		n := NewNet(msgs...)
		var there, back Net
		n.permuteInto(&there, []int{0, 1, 2}, agents)
		if there.text() != n.text() {
			return false
		}
		p := rng.Perm(agents)
		inv := make([]int, agents)
		for i, v := range p {
			inv[v] = i
		}
		n.permuteInto(&there, p, agents)
		there.permuteInto(&back, inv, agents)
		return back.text() == n.text()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteFixesDirectory checks agent indices outside the scalarset (the
// directory) are fixed points.
func TestPermuteFixesDirectory(t *testing.T) {
	n := NewNet(Msg{Kind: MsgGetS, Src: 0, Dst: 2, Req: -1})
	var p Net
	n.permuteInto(&p, []int{1, 0}, 2) // 2 agents; dst 2 is the directory
	if m := p.msgs[0]; m.Src != 1 || m.Dst != 2 {
		t.Errorf("got %+v, want Src=1 Dst=2", m)
	}
}

// TestCountAny checks has against a count over Messages.
func TestCountAny(t *testing.T) {
	n := NewNet(
		Msg{Kind: MsgData, Val: 1},
		Msg{Kind: MsgData, Val: 0},
		Msg{Kind: MsgAck},
	)
	for kind, want := range map[MsgKind]int{MsgData: 2, MsgAck: 1, MsgInv: 0} {
		got := 0
		for _, m := range n.Messages() {
			if m.Kind == kind {
				got++
			}
		}
		if got != want {
			t.Errorf("%d %s messages, want %d", got, kind, want)
		}
		if any := n.has(func(m Msg) bool { return m.Kind == kind }); any != (want > 0) {
			t.Errorf("has(%s) = %v with %d in flight", kind, any, want)
		}
	}
}

// TestRemovePanics checks out-of-range RemoveInPlace panics (programming
// error).
func TestRemovePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	(&Net{}).RemoveInPlace(0)
}

// TestDuplicateMessages checks true multiset semantics: identical messages
// coexist and are removed one at a time.
func TestDuplicateMessages(t *testing.T) {
	m := Msg{Kind: MsgInv, Src: 2, Dst: 0, Req: 1}
	n := NewNet(m, m)
	if n.Len() != 2 {
		t.Fatalf("Len = %d, want 2", n.Len())
	}
	n.RemoveInPlace(0)
	if n.Len() != 1 || n.msgs[0] != m {
		t.Fatalf("after RemoveInPlace: %v", n.msgs)
	}
}

// TestMsgIsSixBytes: a message is a pointer-free record of six one-byte
// fields, so copying a network is a memmove and the collector never scans
// one.
func TestMsgIsSixBytes(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got != msgBytes {
		t.Fatalf("unsafe.Sizeof(Msg{}) = %d, want %d", got, msgBytes)
	}
}

// TestMsgKindOrderIsNameOrder: kinds are numbered in the sorted order of
// their names, so the canonical message order — and with it Key text,
// traces and error strings — is the one the names gave.
func TestMsgKindOrderIsNameOrder(t *testing.T) {
	names := msgKindNames
	if !slices.IsSorted(names[:]) {
		t.Fatalf("kind names are not in sorted order: %q", names)
	}
	for k := MsgKind(0); k < numMsgKinds; k++ {
		if k.String() != names[k] {
			t.Errorf("MsgKind(%d).String() = %q, want %q", k, k.String(), names[k])
		}
	}
	if got := numMsgKinds.String(); got != "MsgKind(8)" {
		t.Errorf("out-of-range kind renders as %q", got)
	}
}

// TestMsgAppendKeyInjective checks every message over all eight kinds, agent
// fields in [-1, 8] and small counts and values: each encodes to exactly
// msgBytes bytes, and no two share an encoding.
func TestMsgAppendKeyInjective(t *testing.T) {
	seen := make(map[[msgBytes]byte]Msg)
	for k := MsgKind(0); k < numMsgKinds; k++ {
		for src := int8(-1); src <= 8; src++ {
			for dst := int8(-1); dst <= 8; dst++ {
				for req := int8(-1); req <= 8; req++ {
					for cnt := int8(-2); cnt <= 8; cnt++ {
						for val := int8(-1); val <= 2; val++ {
							m := Msg{Kind: k, Src: src, Dst: dst, Req: req, Cnt: cnt, Val: val}
							enc := NewNet(m).key()
							if len(enc) != 1+msgBytes {
								t.Fatalf("%v encodes to %d bytes", m, len(enc)-1)
							}
							rec := [msgBytes]byte(enc[1:])
							if prev, dup := seen[rec]; dup {
								t.Fatalf("%v and %v share the encoding %x", prev, m, rec)
							}
							seen[rec] = m
						}
					}
				}
			}
		}
	}
}

// TestNetAppendKeyCountPrefixed checks multiset-level injectivity: nets
// differing only in message multiplicity or content encode apart, and the
// empty net has a non-empty (count-only) encoding.
func TestNetAppendKeyCountPrefixed(t *testing.T) {
	m := Msg{Kind: MsgAck, Src: 0, Dst: 3, Req: -1}
	empty := Net{}
	one := NewNet(m)
	two := NewNet(m, m)
	if len(empty.key()) == 0 {
		t.Error("empty net encodes to nothing")
	}
	encs := [][]byte{empty.key(), one.key(), two.key()}
	for i := 0; i < len(encs); i++ {
		for j := i + 1; j < len(encs); j++ {
			if bytes.Equal(encs[i], encs[j]) {
				t.Errorf("multiplicities %d and %d share an encoding", i, j)
			}
		}
	}
	// Canonical order: construction order must not leak into the encoding.
	x := Msg{Kind: MsgGetS, Src: 1, Dst: 3, Req: -1}
	if !bytes.Equal(NewNet(m, x).key(), NewNet(x, m).key()) {
		t.Error("encoding depends on construction order")
	}
}

// TestNetPermuteIntoMatchesPermute checks permuteInto against the
// sort-from-scratch oracle (permuted) — same canonical order, same key —
// while reusing the destination's storage and leaving the source intact.
func TestNetPermuteIntoMatchesPermute(t *testing.T) {
	n := NewNet(
		Msg{Kind: MsgData, Src: 0, Dst: 2, Req: -1, Cnt: 1, Val: 1},
		Msg{Kind: MsgInv, Src: 3, Dst: 1, Req: 0, Val: 0},
		Msg{Kind: MsgGetM, Src: 2, Dst: 3, Req: -1, Val: 0},
		Msg{Kind: MsgAck, Src: 1, Dst: 3, Req: -1, Val: 0},
	)
	before := n.text()
	dst := n.Copy()
	for _, perm := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}} {
		want := permuted(n, perm, 3)
		n.permuteInto(&dst, perm, 3)
		if dst.text() != want.text() {
			t.Fatalf("perm %v: permuteInto %q, rebuilt from scratch %q", perm, dst.text(), want.text())
		}
	}
	if n.text() != before {
		t.Fatalf("permuteInto mutated the source: %q -> %q", before, n.text())
	}
}

// TestNetPermuteIntoGrows checks a smaller scratch net grows to fit a
// larger source (the scratch is reused across states whose in-flight
// message counts differ).
func TestNetPermuteIntoGrows(t *testing.T) {
	small := NewNet()
	dst := small.Copy()
	big := NewNet(
		Msg{Kind: MsgAck, Src: 0, Dst: 1, Req: -1},
		Msg{Kind: MsgData, Src: 1, Dst: 0, Req: -1},
		Msg{Kind: MsgFwdGetM, Src: 2, Dst: 2, Req: 2},
	)
	big.permuteInto(&dst, []int{2, 0, 1}, 3)
	if want := permuted(big, []int{2, 0, 1}, 3); dst.text() != want.text() {
		t.Fatalf("grown scratch: %q, want %q", dst.text(), want.text())
	}
	// And shrink back down on the next reuse.
	small.permuteInto(&dst, []int{0, 1, 2}, 3)
	if dst.Len() != 0 {
		t.Fatalf("scratch kept %d stale messages", dst.Len())
	}
}

// TestCopyIsPrivate checks Copy's storage independence: permuting into the
// copy never disturbs the original.
func TestCopyIsPrivate(t *testing.T) {
	orig := NewNet(
		Msg{Kind: MsgData, Src: 0, Dst: 1, Req: -1, Val: 1},
		Msg{Kind: MsgInv, Src: 1, Dst: 0, Req: 0},
	)
	before := orig.text()
	cp := orig.Copy()
	orig.permuteInto(&cp, []int{1, 0}, 2)
	if orig.text() != before {
		t.Fatalf("Copy shared storage with the original: %q -> %q", before, orig.text())
	}
}
