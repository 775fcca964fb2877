// Package statespace provides the exploration substrate of VerC3's
// embedded model checker: 64-bit state fingerprints, a level-synchronous
// work distributor for breadth-first search over several workers, an
// optional parent-linked trace store, a memory profile (Stats) of an
// exploration run, and a ring-buffer queue (the frontier of the
// benchmark's independent reference walk, bench/walk.go). The visited-set
// storage itself lives in the sibling package internal/visited (a flat
// open-addressing table and a disk-spilling two-level store), keyed by this
// package's Fingerprint.
//
// The package is deliberately independent of the modelling layer (it knows
// nothing about ts.State): the checker canonicalizes a state to its
// canonical encoding — the state's AppendKey bytes in a reusable buffer —
// fingerprints it with OfBytes (which agrees with OfString byte-for-byte
// on the same content), and stores
// only the fingerprint. Dropping per-state key materialization removes the
// dominant allocation of the exploration hot path and shrinks the visited
// set to 8 bytes of payload per state. Content that arrives in pieces — a
// liveness product state is the system state's encoding plus its monitor
// bytes — is appended into one reusable buffer and hashed with OfBytes.
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
// probability around 3·10⁻⁸. For the runs the test suite pins — every zoo
// entry and spec, the Table I syntheses with every candidate they
// dispatch, and the 1,930,178-state 5-cache MSI walk — the exactness
// oracle in internal/ts/tstest re-explores by exact state identity and
// shows that no two distinct states shared a fingerprint, so those results
// are exact. Any other run stays probabilistic. The synthesis engine
// additionally re-checks every reported solution with trace recording on.
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
func OfString(s string) Fingerprint { return fnv1a(s) }

// OfBytes fingerprints a canonical binary state encoding (FNV-1a, 64-bit).
// It is the allocation-free sibling of OfString: OfBytes(b) ==
// OfString(string(b)) for every b, so the appender keying path and the
// Key-string fallback hash identical content to identical fingerprints.
func OfBytes(b []byte) Fingerprint { return fnv1a(b) }

// fnv1a is the one FNV-1a loop behind OfString and OfBytes.
func fnv1a[T string | []byte](b T) Fingerprint {
	h := uint64(fnvOffset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return Fingerprint(h)
}
