package visited

import (
	"math"
	"math/bits"
	"sync/atomic"

	"verc3/internal/statespace"
)

// bitstate is the SPIN-style lossy tier: K derived bit positions per
// fingerprint are set in a fixed-size bit array, and a fingerprint whose K
// bits are all already set is reported as visited. Memory never grows past
// the configured budget; the price is that a never-seen state can collide
// on all K bits and be silently omitted from the search (Stats().Exact == false).
//
// The layout is a split-block Bloom filter: one word index is derived per
// fingerprint and all K bit positions live inside that single 64-bit word,
// chosen pairwise distinct. That buys two things over scattering the K
// bits across the array. First, one cache line per probe instead of K.
// Second — the reason for the layout — expansion ownership is exact under
// concurrency: a single CAS on the word publishes all K bits at once, and
// freshness is defined as winning the CAS that completes the fingerprint's
// bit set. The word transitions from "not all K set" to "all K set"
// exactly once, and exactly one CAS performs that transition, so of any
// number of racing inserts of one fingerprint precisely one is told it was
// first — the duplicate-admission race of the previous any-bit-was-clear
// rule (which let two workers each set a disjoint subset of the K bits and
// both claim the state) cannot occur. Omission semantics are unchanged: a
// never-seen fingerprint is dropped iff all K of its bits were already set
// by other fingerprints.
//
// All operations are lock-free atomics, so one implementation serves one
// exploration worker or many.
type bitstate struct {
	words    []uint64 // accessed atomically
	nbits    uint64
	k        int
	admitted atomic.Int64
	ones     atomic.Int64
}

func newBitstate(cfg Config) *bitstate {
	mb := cfg.BitstateMB
	if mb <= 0 {
		mb = DefaultBitstateMB
	}
	k := cfg.BitstateHashes
	if k <= 0 {
		k = DefaultBitstateHashes
	}
	return newBitstateBits(uint64(mb)<<23, k) // 1 MiB = 2²³ bits
}

// newBitstateBits sizes the array directly; tests use it to reach fills
// where the omission probability is measurable. nbits is rounded up to a
// whole word; k is capped at 48 so the in-word positions stay meaningfully
// spread (SPIN-scale K is 2–3 anyway).
func newBitstateBits(nbits uint64, k int) *bitstate {
	if k > 48 {
		k = 48
	}
	words := (nbits + 63) / 64
	return &bitstate{words: make([]uint64, words), nbits: words * 64, k: k}
}

// mix is the splitmix64 finalizer, used to derive independent word and bit
// choices from the one 64-bit fingerprint.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// wordIndex maps a derived hash onto [0, len(words)) without requiring a
// power-of-two budget (Lemire's multiply-shift reduction).
func (b *bitstate) wordIndex(h uint64) uint64 {
	hi, _ := bits.Mul64(h, uint64(len(b.words)))
	return hi
}

// blockMask derives the fingerprint's K in-word bits: independent 6-bit
// draws from the hash, bumped to the next free offset on a repeat so the
// K positions are pairwise distinct and the effective K never degrades.
// Independence matters: an arithmetic-progression pattern (start+stride)
// would shrink the space of possible K-sets from C(64,K) to a few
// thousand, making two fingerprints that share a word collide on their
// whole set often enough to measurably omit states at sparse fills.
func (b *bitstate) blockMask(h uint64) uint64 {
	var mask uint64
	seed, draws := h, h
	for i := 0; i < b.k; i++ {
		if i > 0 && i%10 == 0 {
			// 10 draws consume 60 of the 64 bits; derive the next batch
			// from the full-entropy seed, not the 4 exhausted leftover
			// bits, so high-K masks stay diverse.
			draws = mix(seed + uint64(i))
		}
		off := draws & 63
		draws >>= 6
		for mask>>off&1 == 1 {
			off = (off + 1) & 63
		}
		mask |= 1 << off
	}
	return mask
}

// TryInsert sets the fingerprint's K bits and reports whether this call
// completed them — the exact-ownership rule described on bitstate.
func (b *bitstate) TryInsert(fp statespace.Fingerprint) bool {
	h1 := mix(uint64(fp))
	h2 := mix(uint64(fp) + fibMix)
	word := &b.words[b.wordIndex(h1)]
	mask := b.blockMask(h2)
	for {
		old := atomic.LoadUint64(word)
		if old&mask == mask {
			return false // all K bits set: visited (or omitted)
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			b.ones.Add(int64(bits.OnesCount64(mask &^ old)))
			b.admitted.Add(1)
			return true
		}
	}
}

// Len is the number of fingerprints admitted as new — with omissions, a
// lower bound on the distinct fingerprints offered.
func (b *bitstate) Len() int { return int(b.admitted.Load()) }

// OmissionProb estimates the probability that probing a never-seen
// fingerprint reports "already visited" at the current fill: (ones/m)^K,
// the chance all K positions land on set bits. The split-block layout
// makes the true risk marginally higher (block fills vary around the
// global fill, and Jensen's inequality puts the mean of fill^K above
// fill-mean^K), but at 64-bit blocks the correction is a few percent of
// the estimate. This is the per-state omission risk at the end of the
// run; earlier probes faced a sparser array, so it upper-bounds the
// average risk over the run.
func (b *bitstate) OmissionProb() float64 {
	fill := float64(b.ones.Load()) / float64(b.nbits)
	return math.Pow(fill, float64(b.k))
}

func (b *bitstate) Stats() Stats {
	return Stats{
		Backend:      Bitstate.String(),
		States:       b.Len(),
		Bytes:        int64(len(b.words)) * 8,
		Exact:        false,
		BitsSet:      b.ones.Load(),
		OmissionProb: b.OmissionProb(),
	}
}
