package msi

// The unordered interconnect the paper's MSI case study assumes ("all
// networks may be unordered"): messages in flight form a multiset, and any
// pending message may be delivered next. The multiset is kept canonically
// sorted so that network contents encode deterministically into state keys,
// and agent-valued message fields can be permuted for symmetry reduction.
//
// A Net is an owned multiset: each Net value has its message storage to
// itself, and is changed in place (SendInPlace, RemoveInPlace) or
// overwritten (copyInto, permuteInto) by whoever holds it. Assigning a Net
// copies only the slice header, so a second holder must be given a Copy.

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// MsgKind is the protocol's closed set of message types. The kinds are
// numbered in the byte order of their names, so ordering messages by kind
// orders them as the names did: Key text, traces and error strings keep
// the order they had when a message carried its type as a string.
type MsgKind uint8

// Message kinds.
const (
	MsgAck     MsgKind = iota // requester→dir: transaction complete (unblock)
	MsgData                   // data response; Cnt = Inv-Acks to expect
	MsgFwdGetM                // dir→owner: send Data to Req and invalidate
	MsgFwdGetS                // dir→owner: send Data to Req and write back
	MsgGetM                   // cache→dir write request
	MsgGetS                   // cache→dir read request
	MsgInv                    // dir→sharer: invalidate, Inv-Ack the Req
	MsgInvAck                 // sharer→requester
	numMsgKinds
)

// msgKindNames names the kinds, in kind order.
var msgKindNames = [numMsgKinds]string{"Ack", "Data", "FwdGetM", "FwdGetS", "GetM", "GetS", "Inv", "InvAck"}

// String returns the kind's name.
func (k MsgKind) String() string {
	if k < numMsgKinds {
		return msgKindNames[k]
	}
	return "MsgKind(" + strconv.Itoa(int(k)) + ")"
}

// Msg is one protocol message: six bytes, no pointers.
//
// Src, Dst and Req are agent indices and participate in symmetry permutation
// (caches occupy [0, numAgents); the directory uses an index outside that
// range and is a fixed point). Req names the agent on whose behalf the
// message travels (e.g. the original requester in a forwarded request or
// invalidation); -1 when not applicable. Cnt is a plain count (e.g. how many
// Inv-Acks the receiver must collect) and Val a data value; neither is
// permuted. Agents fit in int8: the sharer bitset bounds a system to 8
// caches.
type Msg struct {
	Kind MsgKind
	Src  int8
	Dst  int8
	Req  int8
	Cnt  int8
	Val  int8
}

// msgBytes is the length of a message's binary encoding.
const msgBytes = 6

// appendText appends m's Key text to b: the kind's name and the five fields
// in decimal, comma-separated.
func (m Msg) appendText(b []byte) []byte {
	b = append(b, m.Kind.String()...)
	for _, v := range [...]int8{m.Src, m.Dst, m.Req, m.Cnt, m.Val} {
		b = strconv.AppendInt(append(b, ','), int64(v), 10)
	}
	return b
}

// String renders the message for traces.
func (m Msg) String() string {
	s := fmt.Sprintf("%s(%d→%d", m.Kind, m.Src, m.Dst)
	if m.Req >= 0 {
		s += fmt.Sprintf(" req=%d", m.Req)
	}
	if m.Cnt != 0 {
		s += fmt.Sprintf(" cnt=%d", m.Cnt)
	}
	s += fmt.Sprintf(" val=%d)", m.Val)
	return s
}

// less orders messages canonically: by kind, then field by field.
func less(a, b Msg) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.Req != b.Req {
		return a.Req < b.Req
	}
	if a.Cnt != b.Cnt {
		return a.Cnt < b.Cnt
	}
	return a.Val < b.Val
}

// Net is a canonical multiset of in-flight messages, owning its storage
// (see the file comment). The zero value is an empty network.
type Net struct {
	msgs []Msg // kept sorted
}

// NewNet builds a network containing the given messages.
func NewNet(msgs ...Msg) Net {
	n := Net{msgs: append([]Msg(nil), msgs...)}
	sort.Slice(n.msgs, func(i, j int) bool { return less(n.msgs[i], n.msgs[j]) })
	return n
}

// Len returns the number of in-flight messages.
func (n Net) Len() int { return len(n.msgs) }

// Messages returns the in-flight messages in canonical order. The returned
// slice must not be mutated.
func (n Net) Messages() []Msg { return n.msgs }

// has reports whether some in-flight message satisfies pred.
func (n Net) has(pred func(Msg) bool) bool {
	for _, m := range n.msgs {
		if pred(m) {
			return true
		}
	}
	return false
}

// appendText appends the network's Key text to b: the messages' texts in
// canonical order, joined by ';'.
func (n Net) appendText(b []byte) []byte {
	for i, m := range n.msgs {
		if i > 0 {
			b = append(b, ';')
		}
		b = m.appendText(b)
	}
	return b
}

// appendKey appends the network's binary encoding to dst: a uvarint message
// count, then each message's six bytes — kind, Src, Dst, Req, Cnt, Val — in
// canonical order. Every record has one length, so the count prefix makes
// the encoding injective on message multisets. dst grows once, for the
// count and all the records, which are then written without further
// growth checks.
func (n Net) appendKey(dst []byte) []byte {
	size := msgBytes * len(n.msgs)
	dst = binary.AppendUvarint(slices.Grow(dst, binary.MaxVarintLen64+size), uint64(len(n.msgs)))
	off := len(dst)
	dst = dst[:off+size]
	for _, m := range n.msgs {
		r := (*[msgBytes]byte)(dst[off:])
		r[0], r[1], r[2], r[3], r[4], r[5] = byte(m.Kind), byte(m.Src), byte(m.Dst), byte(m.Req), byte(m.Cnt), byte(m.Val)
		off += msgBytes
	}
	return dst
}

// Copy returns a Net equal to n with message storage of its own.
func (n Net) Copy() Net {
	return Net{msgs: append([]Msg(nil), n.msgs...)}
}

// copyInto writes a copy of n into dst, reusing dst's message storage
// (growing it only when capacity falls short), so recycled protocol states
// keep recirculating one message buffer through arbitrarily many
// copyInto/SendInPlace cycles.
func (n Net) copyInto(dst *Net) {
	dst.msgs = append(dst.msgs[:0], n.msgs...)
}

// SendInPlace inserts m into n's multiset preserving canonical order. The
// insertion is a backward shift like permuteInto's insertion sort: protocol
// networks hold a handful of messages, and nothing is allocated once
// capacity has grown to the working size.
func (n *Net) SendInPlace(m Msg) {
	n.msgs = append(n.msgs, m)
	for j := len(n.msgs) - 1; j > 0 && less(n.msgs[j], n.msgs[j-1]); j-- {
		n.msgs[j], n.msgs[j-1] = n.msgs[j-1], n.msgs[j]
	}
}

// RemoveInPlace deletes the message at index i (in canonical order). It
// panics on out-of-range i.
func (n *Net) RemoveInPlace(i int) {
	if i < 0 || i >= len(n.msgs) {
		panic("msi: RemoveInPlace index out of range")
	}
	n.msgs = append(n.msgs[:i], n.msgs[i+1:]...)
}

// permuteInto overwrites dst with n under the renaming of every agent
// index a in [0, numAgents) to perm[a] in Src, Dst and Req (indices outside
// that range, e.g. the directory, are fixed points), re-canonicalized. It
// reuses dst's message slice (growing it only when capacity falls short);
// dst must not be n itself, and n is not modified. Sorting is an in-place
// insertion sort: protocol networks hold a handful of in-flight messages,
// and unlike sort.Slice it does not allocate.
func (n Net) permuteInto(dst *Net, perm []int, numAgents int) {
	out := dst.msgs[:0]
	permAgent := func(a int8) int8 {
		if a >= 0 && int(a) < numAgents {
			return int8(perm[a])
		}
		return a
	}
	for _, m := range n.msgs {
		m.Src, m.Dst, m.Req = permAgent(m.Src), permAgent(m.Dst), permAgent(m.Req)
		out = append(out, m)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dst.msgs = out
}

// String renders the network for traces.
func (n Net) String() string {
	if len(n.msgs) == 0 {
		return "∅"
	}
	parts := make([]string, len(n.msgs))
	for i, m := range n.msgs {
		parts[i] = m.String()
	}
	return strings.Join(parts, " ")
}
