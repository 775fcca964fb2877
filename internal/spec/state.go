package spec

import (
	"math/bits"
	"strconv"
	"strings"

	"verc3/internal/ts"
)

// layout is the immutable typed-variable layout shared by every state of a
// compiled model: one int32 slot per scalar variable and one per (array
// variable, process) pair, plus the per-slot encoding tables that make
// AppendKey allocation-free and injective.
type layout struct {
	name      string
	n         int // processes
	symmetric bool

	vars     []varInfo
	byName   map[string]*varInfo
	enums    [][]string // enum value-name tables
	enumVals map[string]enumVal

	slots int
	// Per-slot key encoding: the stored value minus slotLo fits slotW bytes
	// (1 or 4, little-endian). Fixed per-slot widths keep the encoding
	// injective without separators.
	slotLo []int32
	slotW  []uint8

	// pidSlots lists the slots holding pid values (scalar pid variables and
	// pid array cells) — the values symmetry permutations must rename.
	pidSlots []int

	// cmpOffs lists the first slots of the per-process arrays that
	// symState.CompareAgents compares, in layout order: the arrays declared
	// before the first pid-typed variable. A pid value is renamed by a
	// permutation, so it is not agent-local data, and once one has been
	// encoded the smallest encoding no longer has to keep a later array
	// sorted.
	cmpOffs []int
}

type enumVal struct {
	enum    int
	ordinal int
}

// varInfo describes one declared variable.
type varInfo struct {
	name   string
	k      kind
	enum   int   // enum table index when k == kEnum
	lo, hi int32 // inclusive stored-value range (pid: lo is -1 when nullable)
	array  bool
	off    int // first slot
	init   int32
}

// finalize assigns slots and builds the encoding tables after vars are set.
func (l *layout) finalize() {
	l.byName = make(map[string]*varInfo, len(l.vars))
	pidSeen := false
	for vi := range l.vars {
		v := &l.vars[vi]
		v.off = l.slots
		pidSeen = pidSeen || v.k == kPid
		if v.array && !pidSeen {
			l.cmpOffs = append(l.cmpOffs, v.off)
		}
		width := 1
		if v.array {
			width = l.n
		}
		l.slots += width
		l.byName[v.name] = v
		w := uint8(1)
		if int64(v.hi)-int64(v.lo) > 0xff {
			w = 4
		}
		for s := 0; s < width; s++ {
			l.slotLo = append(l.slotLo, v.lo)
			l.slotW = append(l.slotW, w)
			if v.k == kPid {
				l.pidSlots = append(l.pidSlots, v.off+s)
			}
		}
	}
}

// specState is a compiled model's state: the shared layout plus one int32
// per slot. It implements ts.State and ts.KeyAppender, and CopyFrom for the
// compiled system's successor pool. The symmetric wrapper symState adds
// ts.Permutable.
type specState struct {
	lay  *layout
	vals []int32
}

// specCore extracts the underlying specState from either concrete type.
type specCore interface{ core() *specState }

func (s *specState) core() *specState { return s }

// newState builds the model's initial state.
func (l *layout) newState() *specState {
	s := &specState{lay: l, vals: make([]int32, l.slots)}
	for _, v := range l.vars {
		width := 1
		if v.array {
			width = l.n
		}
		for i := 0; i < width; i++ {
			s.vals[v.off+i] = v.init
		}
	}
	return s
}

// Key implements ts.State: the slot values joined with commas — canonical
// and injective (the layout is fixed per model).
func (s *specState) Key() string {
	var b strings.Builder
	b.Grow(len(s.vals) * 3)
	for i, v := range s.vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	return b.String()
}

// AppendKey implements ts.KeyAppender: each slot value offset by the slot's
// minimum and emitted in its precomputed fixed width (1 or 4 bytes,
// little-endian). Fixed widths keep the encoding injective; the only
// allocation is dst growth.
func (s *specState) AppendKey(dst []byte) []byte {
	lo, w := s.lay.slotLo, s.lay.slotW
	for i, v := range s.vals {
		u := uint32(v - lo[i])
		if w[i] == 1 {
			dst = append(dst, byte(u))
		} else {
			dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
	}
	return dst
}

// Clone implements ts.State.
func (s *specState) Clone() ts.State {
	vals := make([]int32, len(s.vals))
	copy(vals, s.vals)
	return &specState{lay: s.lay, vals: vals}
}

// CopyFrom overwrites s with src's values in s's own storage: how the
// compiled system reuses a recycled state for a firing rule.
func (s *specState) CopyFrom(src ts.State) {
	o := src.(specCore).core()
	s.lay = o.lay
	s.vals = append(s.vals[:0], o.vals...)
}

// String renders the state with variable and enum value names, for traces.
func (s *specState) String() string {
	var b strings.Builder
	for vi := range s.lay.vars {
		v := &s.lay.vars[vi]
		if vi > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.name)
		b.WriteByte('=')
		if v.array {
			b.WriteByte('[')
			for i := 0; i < s.lay.n; i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(s.renderVal(v, s.vals[v.off+i]))
			}
			b.WriteByte(']')
		} else {
			b.WriteString(s.renderVal(v, s.vals[v.off]))
		}
	}
	return b.String()
}

func (s *specState) renderVal(v *varInfo, val int32) string {
	switch v.k {
	case kBool:
		if val != 0 {
			return "true"
		}
		return "false"
	case kEnum:
		return s.lay.enums[v.enum][val]
	case kPid:
		if val == pidNone {
			return "none"
		}
	}
	return strconv.FormatInt(int64(val), 10)
}

// symState is the state of a model declared symmetric: it adds
// ts.Permutable over the declared per-process arrays (slots permuted) and
// pid-typed variables (values renamed), and ts.AgentComparer over the
// leading arrays. A separate concrete type — rather than a flag on
// specState — because interface satisfaction is static: non-symmetric
// models must not offer PermuteInto at all.
type symState struct{ specState }

// A symState that drops one of these loses symmetry reduction silently;
// fail the build instead.
var (
	_ ts.Permutable    = (*symState)(nil)
	_ ts.AgentComparer = (*symState)(nil)
	_ ts.KeyAppender   = (*symState)(nil)
)

// Clone implements ts.State, preserving the concrete type (the compiled
// system asserts Clone's result back to the state type it runs over).
func (s *symState) Clone() ts.State {
	vals := make([]int32, len(s.vals))
	copy(vals, s.vals)
	return &symState{specState{lay: s.lay, vals: vals}}
}

// NumAgents implements ts.Permutable.
func (s *symState) NumAgents() int { return s.lay.n }

// CompareAgents implements ts.AgentComparer: processes compare by their
// cells of the layout's leading non-pid arrays (layout.cmpOffs), array by
// array — AppendKey is column-major — and cell by cell in the byte order
// AppendKey emits, which for a 4-byte little-endian slot is not numeric
// order.
func (s *symState) CompareAgents(i, j int) int {
	for _, off := range s.lay.cmpOffs {
		a, b := uint32(s.vals[off+i]-s.lay.slotLo[off]), uint32(s.vals[off+j]-s.lay.slotLo[off])
		if s.lay.slotW[off] == 1 {
			a, b = a&0xff, b&0xff
		} else {
			a, b = bits.ReverseBytes32(a), bits.ReverseBytes32(b)
		}
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// PermuteInto implements ts.Permutable: agent a's array cells move to
// perm[a], and pid values v become perm[v] (none stays none).
func (s *symState) PermuteInto(dst ts.State, perm []int) {
	d := dst.(specCore).core()
	for vi := range s.lay.vars {
		v := &s.lay.vars[vi]
		if v.array {
			for a := 0; a < s.lay.n; a++ {
				d.vals[v.off+perm[a]] = s.vals[v.off+a]
			}
		} else {
			d.vals[v.off] = s.vals[v.off]
		}
	}
	for _, slot := range s.lay.pidSlots {
		if p := d.vals[slot]; p >= 0 {
			d.vals[slot] = int32(perm[p])
		}
	}
}
