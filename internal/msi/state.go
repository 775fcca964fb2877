// Package msi implements the paper's case study: a directory-based MSI
// cache-coherence protocol over an unordered interconnect (Figure 3), with
// the transient states that the unordered network forces, the safety and
// liveness-style properties of §III, and the synthesis skeletons MSI-small
// (8 holes) and MSI-large (12 holes) with the designer action libraries
// whose cardinalities (3 response × 7 next-state per cache rule; 5 response
// × 7 next-state × 3 track per directory rule) reproduce the paper's
// candidate counts exactly.
//
// The protocol, derived from Figure 3 and the paper's reference [13] (Sorin
// et al., "A Primer on Memory Consistency and Cache Coherence"):
//
//   - N symmetric cache controllers and one directory share a single cache
//     line; the directory holds the backing memory inline. Evictions are
//     omitted, as in the paper's Figure 3.
//   - Reads: I --GetS--> IS_D --Data--> S. The directory answers from I or S
//     directly; from M it forwards (Fwd-GetS) to the owner, which sends Data
//     to both requester and directory (writeback) and downgrades to S.
//   - Writes: I --GetM--> IM_AD --Data(cnt)--> {M | IM_A} --Inv-Ack*--> M,
//     and S --GetM--> SM_W likewise. The directory invalidates sharers
//     (Inv), which Inv-Ack the requester directly; Data carries the number
//     of Inv-Acks to expect. From M the directory forwards (Fwd-GetM) to
//     the owner, which sends Data to the requester and invalidates itself.
//   - Serialization: completing a write transaction sends Ack to the
//     directory; the directory's transient states (I_M, S_M, M_M) stall
//     further requests until that Ack arrives — this is the "transient
//     state (Invalid-to-Modified) that stalls on further read/write
//     requests" discussed in §III. The M_S transient instead awaits the
//     owner's writeback Data.
//
// Data values are modelled over {0,1} with a ghost "last write" variable, so
// the checker verifies not only the SWMR invariant but that readers observe
// the most recent write.
package msi

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"verc3/internal/ts"
)

// A state that drops one of these loses symmetry reduction silently; fail
// the build instead.
var (
	_ ts.Permutable    = (*State)(nil)
	_ ts.AgentComparer = (*State)(nil)
	_ ts.KeyAppender   = (*State)(nil)
)

// CacheState enumerates the 7 cache-controller states (3 stable + 4
// transient), which is exactly the arity of the cache "next state" hole
// actions in the paper's action library.
type CacheState int8

// Cache-controller states.
const (
	CacheI    CacheState = iota // Invalid (stable)
	CacheS                      // Shared (stable)
	CacheM                      // Modified (stable)
	CacheISD                    // I→S: GetS sent, awaiting Data
	CacheIMAD                   // I→M: GetM sent, awaiting Data (and Inv-Acks)
	CacheIMA                    // I→M: Data received, awaiting remaining Inv-Acks
	CacheSMW                    // S→M: GetM sent, awaiting Data (and Inv-Acks)
	numCacheStates
)

// cacheStateNames are the designer-visible next-state action names.
var cacheStateNames = [...]string{"I", "S", "M", "IS_D", "IM_AD", "IM_A", "SM_W"}

// String returns the state name.
func (s CacheState) String() string { return cacheStateNames[s] }

// DirState enumerates the 7 directory states (3 stable + 4 transient).
type DirState int8

// Directory states.
const (
	DirI  DirState = iota // Invalid (stable): no copies, memory current
	DirS                  // Shared (stable): sharers hold the line
	DirM                  // Modified (stable): owner holds the line
	DirIM                 // I→M: Data sent, awaiting requester's Ack
	DirSM                 // S→M: Invs+Data sent, awaiting requester's Ack
	DirMS                 // M→S: Fwd-GetS sent, awaiting owner's writeback
	DirMM                 // M→M: Fwd-GetM sent, awaiting requester's Ack
	numDirStates
)

// dirStateNames are the designer-visible next-state action names.
var dirStateNames = [...]string{"I", "S", "M", "I_M", "S_M", "M_S", "M_M"}

// String returns the state name.
func (s DirState) String() string { return dirStateNames[s] }

// None marks an empty agent field (no owner / no pending requester).
const None = -1

// Cache is one cache controller's per-line state.
type Cache struct {
	St CacheState
	// Data is the line's value; meaningful in S and M (kept 0 otherwise so
	// state keys stay canonical).
	Data int8
	// Acks counts Inv-Acks: received-so-far while awaiting Data (IM_AD,
	// SM_W), still-needed in IM_A. Zero elsewhere.
	Acks int8
}

// Dir is the directory's per-line state.
type Dir struct {
	St DirState
	// Owner is the owning cache in M (and the old owner during M_S/M_M).
	Owner int8
	// Pending is the requester being serialized during a transient.
	Pending int8
	// Sharers is a bitset of caches holding the line in S.
	Sharers uint8
	// Mem is the backing memory value.
	Mem int8
}

// State is the global protocol state. It implements ts.State,
// ts.KeyAppender, ts.Permutable and ts.AgentComparer, and CopyFrom for the
// system's successor pool.
type State struct {
	Caches []Cache
	Dir    Dir
	Net    Net
	// Ghost is the specification variable: the most recently written value.
	Ghost int8
	// Err poisons the state when an agent received a message it has no
	// handler for (Murphi's "unhandled message" error); the
	// no-protocol-error invariant then fails, ending the search.
	Err string
}

// Key implements ts.State: each cache as "St.Data.Acks|", then
// "DSt.Owner.Pending.Sharers.Mem|", "GGhost|", the in-flight messages as "Kind,Src,Dst,Req,Cnt,Val" joined by
// ';' in canonical order and, for
// an error state, "|E:" and the error. Traces, error text and the
// exactness oracle compare this text; TestKeyTextMatchesFmt pins it.
func (s *State) Key() string {
	b := make([]byte, 0, 64+8*len(s.Caches))
	for _, c := range s.Caches {
		b = appendDotted(b, int64(c.St), int64(c.Data), int64(c.Acks))
	}
	b = appendDotted(append(b, 'D'), int64(s.Dir.St), int64(s.Dir.Owner), int64(s.Dir.Pending), int64(s.Dir.Sharers), int64(s.Dir.Mem))
	b = appendDotted(append(b, 'G'), int64(s.Ghost))
	b = s.Net.appendText(b)
	if s.Err != "" {
		b = append(append(b, "|E:"...), s.Err...)
	}
	return string(b)
}

// appendDotted appends vs in decimal, joined by '.' and closed by '|'.
func appendDotted(b []byte, vs ...int64) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, '|')
}

// AppendKey implements ts.KeyAppender: the binary sibling of Key. Every
// agent-indexed and protocol field is emitted fixed-width (one byte per
// int8-ranged field, cache count prefixed), the network as a message count
// and six bytes per message, and the error string length-prefixed —
// all self-delimiting, so the encoding is injective on field values
// wherever Key is injective. The cache triples come first, in cache order:
// CompareAgents depends on that.
func (s *State) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(len(s.Caches)))
	for _, c := range s.Caches {
		dst = append(dst, byte(c.St), byte(c.Data), byte(c.Acks))
	}
	dst = append(dst, byte(s.Dir.St), byte(s.Dir.Owner), byte(s.Dir.Pending), s.Dir.Sharers, byte(s.Dir.Mem), byte(s.Ghost))
	dst = s.Net.appendKey(dst)
	dst = binary.AppendUvarint(dst, uint64(len(s.Err)))
	dst = append(dst, s.Err...)
	return dst
}

// Clone implements ts.State: the copy has its own cache array and its own
// network storage.
func (s *State) Clone() ts.State {
	return &State{
		Caches: append([]Cache(nil), s.Caches...),
		Dir:    s.Dir,
		Net:    s.Net.Copy(),
		Ghost:  s.Ghost,
		Err:    s.Err,
	}
}

// CopyFrom is how the system's successor pool overwrites a recycled state:
// Clone into the receiver's own cache array and network message storage,
// so one of each recirculates through arbitrarily many recycle/CopyFrom
// cycles while the firing rules mutate the network in place (SendInPlace /
// RemoveInPlace).
func (s *State) CopyFrom(src ts.State) {
	o := src.(*State)
	s.Caches = append(s.Caches[:0], o.Caches...)
	s.Dir = o.Dir
	o.Net.copyInto(&s.Net)
	s.Ghost = o.Ghost
	s.Err = o.Err
}

// NumAgents implements ts.Permutable.
func (s *State) NumAgents() int { return len(s.Caches) }

// CompareAgents implements ts.AgentComparer: caches compare by their
// (St, Data, Acks) triple, byte for byte as AppendKey emits it. The triples
// are the encoding's leading block — only the permutation-invariant cache
// count precedes them — so the smallest encoding always has them sorted,
// and everything that names a cache (directory owner / pending / sharers,
// message endpoints) is left to the full-encoding comparison among ties.
func (s *State) CompareAgents(i, j int) int {
	a, b := s.Caches[i], s.Caches[j]
	if a.St != b.St {
		return int(byte(a.St)) - int(byte(b.St))
	}
	if a.Data != b.Data {
		return int(byte(a.Data)) - int(byte(b.Data))
	}
	return int(byte(a.Acks)) - int(byte(b.Acks))
}

// PermuteInto implements ts.Permutable: cache i is renamed to perm[i]
// everywhere an agent index occurs (cache array slot, directory owner /
// pending / sharers, message Src/Dst/Req). dst's cache array and network
// message storage are reused, so the permutations the symmetry
// canonicalizer tries per state allocate nothing in steady state.
func (s *State) PermuteInto(dst ts.State, perm []int) {
	d := dst.(*State)
	n := len(s.Caches)
	if len(d.Caches) != n {
		d.Caches = make([]Cache, n)
	}
	for i, c := range s.Caches {
		d.Caches[perm[i]] = c
	}
	d.Dir = s.Dir
	permAgent := func(a int8) int8 {
		if a >= 0 && int(a) < n {
			return int8(perm[a])
		}
		return a
	}
	d.Dir.Owner = permAgent(s.Dir.Owner)
	d.Dir.Pending = permAgent(s.Dir.Pending)
	var sh uint8
	for i := 0; i < n; i++ {
		if s.Dir.Sharers&(1<<uint(i)) != 0 {
			sh |= 1 << uint(perm[i])
		}
	}
	d.Dir.Sharers = sh
	d.Ghost = s.Ghost
	d.Err = s.Err
	s.Net.permuteInto(&d.Net, perm, n)
}

// String renders the state for traces.
func (s *State) String() string {
	var b strings.Builder
	for i, c := range s.Caches {
		fmt.Fprintf(&b, "c%d:%s(d=%d,a=%d) ", i, c.St, c.Data, c.Acks)
	}
	fmt.Fprintf(&b, "dir:%s(own=%d,pend=%d,shr=%08b,mem=%d) ghost=%d net=[%s]",
		s.Dir.St, s.Dir.Owner, s.Dir.Pending, s.Dir.Sharers, s.Dir.Mem, s.Ghost, s.Net)
	if s.Err != "" {
		fmt.Fprintf(&b, " ERR=%s", s.Err)
	}
	return b.String()
}
