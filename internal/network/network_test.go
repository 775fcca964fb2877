package network_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"verc3/internal/network"
)

// genMsg builds a random message over a small agent universe.
func genMsg(rng *rand.Rand, agents int) network.Msg {
	types := []string{"GetS", "GetM", "Data", "Inv", "Ack"}
	return network.Msg{
		Type: types[rng.Intn(len(types))],
		Src:  rng.Intn(agents + 1), // may be the directory (== agents)
		Dst:  rng.Intn(agents + 1),
		Req:  rng.Intn(agents+1) - 1, // may be None
		Cnt:  rng.Intn(3),
		Val:  rng.Intn(2),
	}
}

// permuted is the sort-from-scratch oracle for PermuteInto: every agent
// index below agents renamed through perm, the multiset rebuilt by New.
func permuted(n network.Net, perm []int, agents int) network.Net {
	msgs := append([]network.Msg(nil), n.Messages()...)
	for i := range msgs {
		for _, f := range []*int{&msgs[i].Src, &msgs[i].Dst, &msgs[i].Req} {
			if *f >= 0 && *f < agents {
				*f = perm[*f]
			}
		}
	}
	return network.New(msgs...)
}

// checkInPlace drives one owned Net through the operations ops encodes —
// SendInPlace, RemoveInPlace and PermuteInto (into a second Net that then
// becomes the one under test) — and after every step compares it with the
// same multiset rebuilt from an unsorted list by New. A Copy taken before
// each step must not move.
func checkInPlace(t *testing.T, ops []byte) {
	t.Helper()
	const agents = 3
	types := []string{"GetS", "GetM", "Data", "Inv", "Ack"}
	var n, spare network.Net
	var ref []network.Msg // the multiset, unsorted
	for len(ops) >= 2 {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		snapshot := n.Copy()
		before := snapshot.Key()
		switch {
		case op%4 == 3 && n.Len() > 0:
			i := int(arg) % n.Len()
			gone := n.Messages()[i]
			n.RemoveInPlace(i)
			for j, m := range ref {
				if m == gone {
					ref = append(ref[:j], ref[j+1:]...)
					break
				}
			}
		case op%4 == 2:
			perm := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[arg%6]
			n.PermuteInto(&spare, perm, agents)
			n, spare = spare, n
			ref = append([]network.Msg(nil), permuted(network.New(ref...), perm, agents).Messages()...)
		default:
			m := network.Msg{
				Type: types[int(op>>2)%len(types)],
				Src:  int(arg) % (agents + 1), // may be the directory (== agents)
				Dst:  int(arg>>2) % (agents + 1),
				Req:  int(arg>>4)%(agents+1) - 1, // may be None
				Cnt:  int(arg>>6) % 2,
				Val:  int(op>>5) % 2,
			}
			n.SendInPlace(m)
			ref = append(ref, m)
		}
		want := network.New(ref...)
		if !bytes.Equal(n.AppendKey(nil), want.AppendKey(nil)) || n.Key() != want.Key() {
			t.Fatalf("after op %d/%d: have %v, the multiset rebuilt from scratch is %v", op, arg, n.Messages(), want.Messages())
		}
		if snapshot.Key() != before {
			t.Fatalf("op %d/%d wrote through a Copy: %q -> %q", op, arg, before, snapshot.Key())
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

// TestSendRemoveMultiset checks SendInPlace/RemoveInPlace (and PermuteInto)
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
		msgs := make([]network.Msg, 1+rng.Intn(6))
		for i := range msgs {
			msgs[i] = genMsg(rng, 3)
		}
		a := network.New(msgs...)
		var b network.Net
		for _, i := range rng.Perm(len(msgs)) {
			b.SendInPlace(msgs[i])
		}
		return a.Key() == b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteGroupAction checks PermuteInto is a group action: identity is
// a no-op and applying p then p⁻¹ round-trips.
func TestPermuteGroupAction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const agents = 3
		msgs := make([]network.Msg, 1+rng.Intn(6))
		for i := range msgs {
			msgs[i] = genMsg(rng, agents)
		}
		n := network.New(msgs...)
		var there, back network.Net
		n.PermuteInto(&there, []int{0, 1, 2}, agents)
		if there.Key() != n.Key() {
			return false
		}
		p := rng.Perm(agents)
		inv := make([]int, agents)
		for i, v := range p {
			inv[v] = i
		}
		n.PermuteInto(&there, p, agents)
		there.PermuteInto(&back, inv, agents)
		return back.Key() == n.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteFixesDirectory checks agent indices outside the scalarset (the
// directory) are fixed points.
func TestPermuteFixesDirectory(t *testing.T) {
	n := network.New(network.Msg{Type: "GetS", Src: 0, Dst: 2, Req: -1})
	var p network.Net
	n.PermuteInto(&p, []int{1, 0}, 2) // 2 agents; dst 2 is the directory
	if m := p.Messages()[0]; m.Src != 1 || m.Dst != 2 {
		t.Errorf("got %+v, want Src=1 Dst=2", m)
	}
}

// TestCountAny checks Any against a count over Messages.
func TestCountAny(t *testing.T) {
	n := network.New(
		network.Msg{Type: "Data", Val: 1},
		network.Msg{Type: "Data", Val: 0},
		network.Msg{Type: "Ack"},
	)
	for typ, want := range map[string]int{"Data": 2, "Ack": 1, "Inv": 0} {
		got := 0
		for _, m := range n.Messages() {
			if m.Type == typ {
				got++
			}
		}
		if got != want {
			t.Errorf("%d %s messages, want %d", got, typ, want)
		}
		if any := n.Any(func(m network.Msg) bool { return m.Type == typ }); any != (want > 0) {
			t.Errorf("Any(%s) = %v with %d in flight", typ, any, want)
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
	(&network.Net{}).RemoveInPlace(0)
}

// TestDuplicateMessages checks true multiset semantics: identical messages
// coexist and are removed one at a time.
func TestDuplicateMessages(t *testing.T) {
	m := network.Msg{Type: "Inv", Src: 2, Dst: 0, Req: 1}
	n := network.New(m, m)
	if n.Len() != 2 {
		t.Fatalf("Len = %d, want 2", n.Len())
	}
	n.RemoveInPlace(0)
	if n.Len() != 1 || n.Messages()[0] != m {
		t.Fatalf("after RemoveInPlace: %v", n.Messages())
	}
}
