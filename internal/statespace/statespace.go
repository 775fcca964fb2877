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
// fingerprints it with OfBytes (a fixed, unseeded word-at-a-time multiply
// hash), and stores only the fingerprint. Dropping per-state key
// materialization removes the dominant allocation of the exploration hot
// path and shrinks the visited set to 8 bytes of payload per state.
// Content that arrives in pieces — a liveness product state is the system
// state's encoding plus its monitor bytes — is appended into one reusable
// buffer and hashed with OfBytes.
//
// Exploration is trace-optional. The frontier carries states directly, in
// blocks that go back to a free list as soon as their last state is
// expanded, so with counterexample recording off nothing per-state outlives
// its own expansion except the 8-byte fingerprint — the
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

import (
	"encoding/binary"
	"math/bits"
)

// Fingerprint is the 64-bit hash (OfBytes) of a state's canonical
// encoding. Every exploration keys its visited set by Fingerprint, whatever
// its worker count or search order, so all dedupe — and therefore count —
// states identically.
type Fingerprint uint64

// The hash's constants: fpSeed0/fpSeed1 start the two lanes (each
// combined with the input length), fpWord0/fpWord1 are xored into the words
// each lane reads, and fpFold into the lane's other factor and into the
// fold that joins the lanes. They are wyhash's published constants (odd,
// 32 of 64 bits set), fixed here rather than drawn per process, so a state
// has the same fingerprint in every run: the exactness oracle's zero-merge
// identity counts and the golden values in fingerprint_test.go are pinned,
// and a run on one machine reproduces a run on another bit for bit.
const (
	fpSeed0 = 0xa0761d6478bd642f
	fpSeed1 = 0xe7037ed1a0b428db
	fpWord0 = 0x8ebc6af09c88c6e3
	fpWord1 = 0x589965cc75374cc3
	fpFold  = 0x1d8e4e27c47d124f
)

// OfBytes fingerprints a canonical binary state encoding. It reads b eight
// little-endian bytes at a time into two independent lanes — words
// alternate between them, so consecutive multiplies do not wait on each
// other — and mixes each word into its lane with a 128-bit multiply folded
// to 64 bits (hi ^ lo, as wyhash does). Both factors carry the lane: one
// is the word xor the lane, the other the lane xor a constant. A factor is
// zero, and the product forgets the lane's earlier words, only where a
// word equals the lane's own running value xor a constant, never for a
// fixed word value. The length is in both lanes' seeds and a final ≤7-byte
// tail is read as one zero-padded word, so b and append(b, 0) hash apart.
// The lanes are folded together and avalanched, so the fingerprint's bits
// are uniform throughout: the visited table takes slot homes from bits 32
// and up and stripes from the low bits. OfBytes allocates nothing and is a
// pure function of b's content.
func OfBytes(b []byte) Fingerprint {
	n := uint64(len(b))
	h0, h1 := fpSeed0^n, fpSeed1^n
	for ; len(b) >= 16; b = b[16:] {
		h0 = mix(binary.LittleEndian.Uint64(b)^fpWord0^h0, h0^fpFold)
		h1 = mix(binary.LittleEndian.Uint64(b[8:])^fpWord1^h1, h1^fpFold)
	}
	if len(b) >= 8 {
		h0 = mix(binary.LittleEndian.Uint64(b)^fpWord0^h0, h0^fpFold)
		b = b[8:]
	}
	if len(b) > 0 {
		h1 = mix(tailWord(b)^fpWord1^h1, h1^fpFold)
	}
	return Fingerprint(avalanche(mix(h0^fpFold, h1)))
}

// mix is the 128-bit multiply folded to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// tailWord reads the 1–7 bytes of b as one little-endian word padded with
// zeros, by two overlapping reads (the overlap ors equal bits together).
func tailWord(b []byte) uint64 {
	r := len(b)
	if r >= 4 {
		return uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[r-4:]))<<(8*(r-4))
	}
	return uint64(b[0]) | uint64(b[r/2])<<(8*(r/2)) | uint64(b[r-1])<<(8*(r-1))
}

// avalanche is the splitmix64 finalizer: a bijection whose every output bit
// depends on every input bit.
func avalanche(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
