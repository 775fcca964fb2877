package network_test

// Tests for the network's binary keying and in-place permutation support.

import (
	"bytes"
	"testing"

	"verc3/internal/network"
)

// TestMsgAppendKeySelfDelimiting checks the property the length-prefixed
// encoding exists for: message field values cannot bleed into each other,
// even where the comma-joined Key() string would collide.
func TestMsgAppendKeySelfDelimiting(t *testing.T) {
	// Classic delimiter collision: both messages Key() to "x,1,2,3,4,5".
	a := network.Msg{Type: "x,1", Src: 2, Dst: 3, Req: 4, Cnt: 5, Val: 6}
	b := network.Msg{Type: "x", Src: 1, Dst: 2, Req: 3, Cnt: 4, Val: 5}
	if a.Key() == b.Key() {
		// Document the string-path weakness the binary path fixes.
		if bytes.Equal(a.AppendKey(nil), b.AppendKey(nil)) {
			t.Fatal("binary encodings collide along with the string keys")
		}
	}
	// Distinct fields must always encode apart.
	base := network.Msg{Type: "Data", Src: 0, Dst: 1, Req: -1, Cnt: 2, Val: 1}
	ref := base.AppendKey(nil)
	for name, m := range map[string]network.Msg{
		"type": {Type: "Inv", Src: 0, Dst: 1, Req: -1, Cnt: 2, Val: 1},
		"src":  {Type: "Data", Src: 2, Dst: 1, Req: -1, Cnt: 2, Val: 1},
		"dst":  {Type: "Data", Src: 0, Dst: 2, Req: -1, Cnt: 2, Val: 1},
		"req":  {Type: "Data", Src: 0, Dst: 1, Req: 0, Cnt: 2, Val: 1},
		"cnt":  {Type: "Data", Src: 0, Dst: 1, Req: -1, Cnt: -2, Val: 1},
		"val":  {Type: "Data", Src: 0, Dst: 1, Req: -1, Cnt: 2, Val: 0},
	} {
		if bytes.Equal(m.AppendKey(nil), ref) {
			t.Errorf("%s: field change invisible in encoding", name)
		}
	}
}

// TestNetAppendKeyCountPrefixed checks multiset-level injectivity: nets
// differing only in message multiplicity or content encode apart, and the
// empty net has a non-empty (count-only) encoding.
func TestNetAppendKeyCountPrefixed(t *testing.T) {
	m := network.Msg{Type: "Ack", Src: 0, Dst: 3, Req: -1}
	empty := network.Net{}
	one := network.New(m)
	two := network.New(m, m)
	if len(empty.AppendKey(nil)) == 0 {
		t.Error("empty net encodes to nothing")
	}
	encs := [][]byte{empty.AppendKey(nil), one.AppendKey(nil), two.AppendKey(nil)}
	for i := 0; i < len(encs); i++ {
		for j := i + 1; j < len(encs); j++ {
			if bytes.Equal(encs[i], encs[j]) {
				t.Errorf("multiplicities %d and %d share an encoding", i, j)
			}
		}
	}
	// Canonical order: construction order must not leak into the encoding.
	x := network.Msg{Type: "GetS", Src: 1, Dst: 3, Req: -1}
	if !bytes.Equal(network.New(m, x).AppendKey(nil), network.New(x, m).AppendKey(nil)) {
		t.Error("encoding depends on construction order")
	}
}

// TestNetPermuteIntoMatchesPermute checks PermuteInto against the
// sort-from-scratch oracle (permuted, network_test.go) — same canonical
// order, same key — while reusing the destination's storage and leaving the
// source intact.
func TestNetPermuteIntoMatchesPermute(t *testing.T) {
	n := network.New(
		network.Msg{Type: "Data", Src: 0, Dst: 2, Req: -1, Cnt: 1, Val: 1},
		network.Msg{Type: "Inv", Src: 3, Dst: 1, Req: 0, Val: 0},
		network.Msg{Type: "GetM", Src: 2, Dst: 3, Req: -1, Val: 0},
		network.Msg{Type: "Ack", Src: 1, Dst: 3, Req: -1, Val: 0},
	)
	before := n.Key()
	dst := n.Copy()
	for _, perm := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}} {
		want := permuted(n, perm, 3)
		n.PermuteInto(&dst, perm, 3)
		if dst.Key() != want.Key() {
			t.Fatalf("perm %v: PermuteInto %q, rebuilt from scratch %q", perm, dst.Key(), want.Key())
		}
	}
	if n.Key() != before {
		t.Fatalf("PermuteInto mutated the source: %q -> %q", before, n.Key())
	}
}

// TestNetPermuteIntoGrows checks a smaller scratch net grows to fit a
// larger source (the scratch is reused across states whose in-flight
// message counts differ).
func TestNetPermuteIntoGrows(t *testing.T) {
	small := network.New()
	dst := small.Copy()
	big := network.New(
		network.Msg{Type: "A", Src: 0, Dst: 1, Req: -1},
		network.Msg{Type: "B", Src: 1, Dst: 0, Req: -1},
		network.Msg{Type: "C", Src: 2, Dst: 2, Req: 2},
	)
	big.PermuteInto(&dst, []int{2, 0, 1}, 3)
	if want := permuted(big, []int{2, 0, 1}, 3); dst.Key() != want.Key() {
		t.Fatalf("grown scratch: %q, want %q", dst.Key(), want.Key())
	}
	// And shrink back down on the next reuse.
	small.PermuteInto(&dst, []int{0, 1, 2}, 3)
	if dst.Len() != 0 {
		t.Fatalf("scratch kept %d stale messages", dst.Len())
	}
}

// TestCopyIsPrivate checks Copy's storage independence: permuting into the
// copy never disturbs the original.
func TestCopyIsPrivate(t *testing.T) {
	orig := network.New(
		network.Msg{Type: "Data", Src: 0, Dst: 1, Req: -1, Val: 1},
		network.Msg{Type: "Inv", Src: 1, Dst: 0, Req: 0},
	)
	before := orig.Key()
	cp := orig.Copy()
	orig.PermuteInto(&cp, []int{1, 0}, 2)
	if orig.Key() != before {
		t.Fatalf("Copy shared storage with the original: %q -> %q", before, orig.Key())
	}
}
