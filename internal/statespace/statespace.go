// Package statespace provides the exploration substrate of VerC3's
// embedded model checker: 64-bit state fingerprints, a level-synchronous
// work distributor for breadth-first search over several workers, an
// optional parent-linked trace store, a memory profile (Stats) of an
// exploration run, and a ring-buffer queue (the frontier of the
// benchmark's independent reference walk, bench/walk.go). The visited-set storage
// itself is pluggable and lives in the sibling package internal/visited
// (map, flat open-addressing, and SPIN-style bitstate backends), all keyed
// by this package's Fingerprint.
//
// The package is deliberately independent of the modelling layer (it knows
// nothing about ts.State): the checker canonicalizes a state to its
// canonical encoding — a reusable binary buffer when the state implements
// ts.KeyAppender, its Key string otherwise — fingerprints it with OfBytes /
// OfString (the two agree byte-for-byte on the same content), and stores
// only the fingerprint. Dropping per-state key materialization removes the
// dominant allocation of the exploration hot path and shrinks the visited
// set to 8 bytes of payload per state; Hasher additionally supports
// fingerprinting content that arrives in pieces without concatenating it.
//
// Exploration is trace-optional. The frontier carries states directly and
// each level's buffer is recycled for the level after next, so with
// counterexample recording off nothing per-state outlives the level after
// its own except the 8-byte fingerprint — the
// memory regime of SPIN's and TLC's fingerprint-only modes. Only when the
// caller wants replayable counterexamples does TraceStore allocate one
// parent-linked TraceNode per discovered state, restoring the O(states)
// memory the traces inherently cost. Stats reports both regimes (visited
// set size, frontier high-water mark, trace nodes, a structural
// bytes-retained estimate) so the trade is measurable.
//
// Fingerprinting trades a vanishing probability of unsoundness for this
// speed: two distinct states colliding on all 64 bits would merge in the
// visited set (Murphi's hash compaction makes the same trade). By the
// birthday bound (≈ n²/2⁶⁵) a million-state exploration has a collision
// probability around 3·10⁻⁸. The synthesis engine additionally re-checks
// every reported solution with trace recording on, so a collision during
// the traceless search cannot smuggle a wrong candidate into the results.
package statespace

// Fingerprint is the 64-bit FNV-1a hash of a state's canonical key. Every
// exploration keys its visited set by Fingerprint, whatever its worker
// count or search order, so all dedupe — and therefore count — states
// identically.
type Fingerprint uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// OfString fingerprints a canonical state key (FNV-1a, 64-bit).
func OfString(s string) Fingerprint {
	h := NewHasher()
	h.AddString(s)
	return h.Sum()
}

// OfBytes fingerprints a canonical binary state encoding (FNV-1a, 64-bit).
// It is the allocation-free sibling of OfString: OfBytes(b) ==
// OfString(string(b)) for every b, so the appender keying path and the
// legacy string path hash identical content to identical fingerprints.
func OfBytes(b []byte) Fingerprint {
	h := NewHasher()
	h.Add(b)
	return h.Sum()
}

// Hasher is an incremental 64-bit FNV-1a fingerprint accumulator for
// content that arrives in pieces: feeding it the concatenation of any
// sequence of Add/AddByte/AddString calls yields exactly OfBytes/OfString
// of the concatenated content. (The methods are deliberately not the
// io.Writer family — they return nothing, cannot fail, and must never
// force a caller through an interface.) The zero value is NOT ready; start
// from NewHasher (FNV's offset basis is non-zero).
type Hasher struct{ h uint64 }

// NewHasher returns a Hasher primed with the FNV-1a offset basis.
func NewHasher() Hasher { return Hasher{h: fnvOffset64} }

// Add folds b into the running fingerprint.
func (h *Hasher) Add(b []byte) {
	x := h.h
	for i := 0; i < len(b); i++ {
		x ^= uint64(b[i])
		x *= fnvPrime64
	}
	h.h = x
}

// AddByte folds a single byte into the running fingerprint.
func (h *Hasher) AddByte(b byte) {
	h.h = (h.h ^ uint64(b)) * fnvPrime64
}

// AddString folds s into the running fingerprint.
func (h *Hasher) AddString(s string) {
	x := h.h
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime64
	}
	h.h = x
}

// Sum returns the fingerprint of everything written so far. The hasher
// remains usable (Sum is a read).
func (h *Hasher) Sum() Fingerprint { return Fingerprint(h.h) }
