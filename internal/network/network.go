// Package network models the unordered interconnect the paper's MSI case
// study assumes ("all networks may be unordered"): messages in flight form a
// multiset, and any pending message may be delivered next. The multiset is
// kept canonically sorted so that network contents encode deterministically
// into state keys, and agent-valued message fields can be permuted for
// symmetry reduction.
//
// A Net is an owned multiset: each Net value has its message storage to
// itself, and is changed in place (SendInPlace, RemoveInPlace) or
// overwritten (CopyInto, PermuteInto) by whoever holds it. Assigning a Net
// copies only the slice header, so a second holder must be given a Copy.
package network

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Msg is one protocol message.
//
// Src, Dst and Req are agent indices and participate in symmetry permutation
// (caches occupy [0, numAgents); the directory uses an index outside that
// range and is a fixed point). Req names the agent on whose behalf the
// message travels (e.g. the original requester in a forwarded request or
// invalidation); -1 when not applicable. Cnt is a plain count (e.g. how many
// Inv-Acks the receiver must collect) and Val a data value; neither is
// permuted.
type Msg struct {
	Type string
	Src  int
	Dst  int
	Req  int
	Cnt  int
	Val  int
}

// Key returns the canonical encoding of the message.
func (m Msg) Key() string {
	return fmt.Sprintf("%s,%d,%d,%d,%d,%d", m.Type, m.Src, m.Dst, m.Req, m.Cnt, m.Val)
}

// AppendKey appends the message's compact binary encoding to dst: the type
// string length-prefixed (uvarint), then the five integer fields as zigzag
// varints. Every component is self-delimiting, so the encoding is injective
// on the raw field values — strictly stronger than Key, whose comma-joined
// rendering could in principle collide for adversarial Type strings.
func (m Msg) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Type)))
	dst = append(dst, m.Type...)
	dst = binary.AppendVarint(dst, int64(m.Src))
	dst = binary.AppendVarint(dst, int64(m.Dst))
	dst = binary.AppendVarint(dst, int64(m.Req))
	dst = binary.AppendVarint(dst, int64(m.Cnt))
	dst = binary.AppendVarint(dst, int64(m.Val))
	return dst
}

// DecodeMsg decodes one message from the front of data — the inverse of
// AppendKey — returning the unconsumed remainder. Malformed input yields
// an error, never a panic: checkpoint files cross a process boundary.
func DecodeMsg(data []byte) (Msg, []byte, error) {
	var m Msg
	tl, n := binary.Uvarint(data)
	if n <= 0 || tl > uint64(len(data)-n) {
		return m, nil, fmt.Errorf("network: truncated message type")
	}
	data = data[n:]
	m.Type = string(data[:tl])
	data = data[tl:]
	for _, dst := range []*int{&m.Src, &m.Dst, &m.Req, &m.Cnt, &m.Val} {
		v, n := binary.Varint(data)
		if n <= 0 {
			return m, nil, fmt.Errorf("network: truncated message field")
		}
		*dst = int(v)
		data = data[n:]
	}
	return m, data, nil
}

// DecodeNet decodes a network from the front of data — the inverse of
// Net.AppendKey — returning the unconsumed remainder. The decoded Net
// owns its storage. The message order is taken as-is (AppendKey emits
// canonical order, so a round-trip is bit-identical); out-of-order input
// is re-canonicalized rather than rejected.
func DecodeNet(data []byte) (Net, []byte, error) {
	cnt, n := binary.Uvarint(data)
	if n <= 0 || cnt > uint64(len(data)-n) { // each message is ≥ 6 bytes; len bound is a cheap sanity cap
		return Net{}, nil, fmt.Errorf("network: truncated message count")
	}
	data = data[n:]
	msgs := make([]Msg, 0, cnt)
	sorted := true
	for i := uint64(0); i < cnt; i++ {
		m, rest, err := DecodeMsg(data)
		if err != nil {
			return Net{}, nil, err
		}
		if len(msgs) > 0 && less(m, msgs[len(msgs)-1]) {
			sorted = false
		}
		msgs = append(msgs, m)
		data = rest
	}
	if !sorted {
		sort.Slice(msgs, func(i, j int) bool { return less(msgs[i], msgs[j]) })
	}
	return Net{msgs: msgs}, data, nil
}

// String renders the message for traces.
func (m Msg) String() string {
	s := fmt.Sprintf("%s(%d→%d", m.Type, m.Src, m.Dst)
	if m.Req >= 0 {
		s += fmt.Sprintf(" req=%d", m.Req)
	}
	if m.Cnt != 0 {
		s += fmt.Sprintf(" cnt=%d", m.Cnt)
	}
	s += fmt.Sprintf(" val=%d)", m.Val)
	return s
}

// less orders messages canonically.
func less(a, b Msg) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
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
// (see the package comment). The zero value is an empty network.
type Net struct {
	msgs []Msg // kept sorted
}

// New builds a network containing the given messages.
func New(msgs ...Msg) Net {
	n := Net{msgs: append([]Msg(nil), msgs...)}
	sort.Slice(n.msgs, func(i, j int) bool { return less(n.msgs[i], n.msgs[j]) })
	return n
}

// Len returns the number of in-flight messages.
func (n Net) Len() int { return len(n.msgs) }

// Messages returns the in-flight messages in canonical order. The returned
// slice must not be mutated.
func (n Net) Messages() []Msg { return n.msgs }

// Any reports whether some in-flight message satisfies pred.
func (n Net) Any(pred func(Msg) bool) bool {
	for _, m := range n.msgs {
		if pred(m) {
			return true
		}
	}
	return false
}

// Key returns the canonical encoding of the whole network.
func (n Net) Key() string {
	var b strings.Builder
	for i, m := range n.msgs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(m.Key())
	}
	return b.String()
}

// AppendKey appends the network's compact binary encoding to dst: a uvarint
// message count followed by each message's encoding in canonical order.
// The count prefix plus self-delimiting message encodings make the whole
// encoding injective on message multisets.
func (n Net) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(n.msgs)))
	for _, m := range n.msgs {
		dst = m.AppendKey(dst)
	}
	return dst
}

// Copy returns a Net equal to n with message storage of its own.
func (n Net) Copy() Net {
	return Net{msgs: append([]Msg(nil), n.msgs...)}
}

// CopyInto writes a copy of n into dst, reusing dst's message storage
// (growing it only when capacity falls short), so recycled protocol states
// keep recirculating one message buffer through arbitrarily many
// CopyInto/SendInPlace cycles.
func (n Net) CopyInto(dst *Net) {
	dst.msgs = append(dst.msgs[:0], n.msgs...)
}

// SendInPlace inserts m into n's multiset preserving canonical order. The
// insertion is a backward shift like PermuteInto's insertion sort: protocol
// networks hold a handful of messages, and nothing is allocated once
// capacity has grown to the working size.
func (n *Net) SendInPlace(m Msg) {
	n.msgs = append(n.msgs, m)
	for j := len(n.msgs) - 1; j > 0 && less(n.msgs[j], n.msgs[j-1]); j-- {
		n.msgs[j], n.msgs[j-1] = n.msgs[j-1], n.msgs[j]
	}
}

// RemoveInPlace deletes the message at index i (per Messages order). It
// panics on out-of-range i.
func (n *Net) RemoveInPlace(i int) {
	if i < 0 || i >= len(n.msgs) {
		panic("network: RemoveInPlace index out of range")
	}
	n.msgs = append(n.msgs[:i], n.msgs[i+1:]...)
}

// PermuteInto overwrites dst with n under the renaming of every agent
// index a in [0, numAgents) to perm[a] in Src, Dst and Req (indices outside
// that range, e.g. the directory, are fixed points), re-canonicalized. It
// reuses dst's message slice (growing it only when capacity falls short);
// dst must not be n itself, and n is not modified. Sorting is an in-place
// insertion sort: protocol networks hold a handful of in-flight messages,
// and unlike sort.Slice it does not allocate.
func (n Net) PermuteInto(dst *Net, perm []int, numAgents int) {
	out := dst.msgs[:0]
	for _, m := range n.msgs {
		if m.Src >= 0 && m.Src < numAgents {
			m.Src = perm[m.Src]
		}
		if m.Dst >= 0 && m.Dst < numAgents {
			m.Dst = perm[m.Dst]
		}
		if m.Req >= 0 && m.Req < numAgents {
			m.Req = perm[m.Req]
		}
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
