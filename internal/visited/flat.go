package visited

import (
	"sync"
	"unsafe"

	"verc3/internal/statespace"
)

const (
	// flatInitialSlots is a fresh table's capacity: 2KiB, far below the
	// 1024-entry map the sequential checker used to pre-allocate per run,
	// which matters when synthesis makes millions of small dispatches.
	flatInitialSlots = 256
	// flatMinStripeSlots keeps the per-stripe tables of the concurrent
	// variant tiny until they actually fill.
	flatMinStripeSlots = 32
	// fibMix is 2⁶⁴/φ, the Fibonacci-hashing multiplier: slot indices come
	// from the top bits of fp*fibMix, decorrelating the probe sequence
	// from the low fingerprint bits that pick the stripe.
	fibMix = 0x9E3779B97F4A7C15
)

// flatTable is the open-addressing core shared by the sequential and the
// lock-striped Flat variants (and the Spill backend's in-RAM tier): a
// power-of-two slice of raw 8-byte fingerprints with Robin Hood probing —
// an insert displaces any resident whose probe distance is shorter than
// its own, equalizing displacement across occupants. Bounded displacement
// variance is what lets the load cap sit at 15/16 (versus the 7/8 a plain
// linear-probing table needs to keep probe tails short), cutting slot
// bytes per state by up to half at loads that previously forced a
// doubling. Growth doubles and rehashes past 15/16 load. The zero
// fingerprint cannot live in a slot (0 marks "empty") and is tracked in a
// sideband bool.
type flatTable struct {
	slots   []uint64
	used    int // occupied slots (excludes the zero-fingerprint sideband)
	hasZero bool
	grows   int
}

// home returns fp's preferred slot index: bits 32..32+b of fp*fibMix for a
// table of 2^b slots (b <= 32 always holds — 2³² slots would be a 32GiB
// stripe), which are well mixed regardless of the fingerprint's low bits.
func home(fp uint64, mask int) int {
	return int((fp * fibMix) >> 32 & uint64(mask))
}

// dist returns how far the occupant of slot i sits from its home slot.
func dist(fp uint64, i, mask int) int {
	return (i - home(fp, mask)) & mask
}

// tryInsert probes for fp, inserting it if absent. minSlots bounds the
// initial allocation (the striped variant starts smaller).
//
// The Robin Hood invariant — along any probe sequence, displacement never
// decreases — doubles as the absence proof: the moment a resident's
// displacement drops below the probe's own distance, fp cannot occur
// further down the sequence, so the probe claims that slot and bubbles
// the shorter-travelled resident onward (equality checks stop there; all
// residents are distinct by construction).
func (t *flatTable) tryInsert(fp uint64, minSlots int) bool {
	if fp == 0 {
		if t.hasZero {
			return false
		}
		t.hasZero = true
		return true
	}
	if t.slots == nil {
		t.slots = make([]uint64, minSlots)
	} else if 16*(t.used+1) > 15*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := home(fp, mask)
	cur, curDist := fp, 0
	searching := true // still probing for fp itself (no displacement yet)
	for {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = cur
			t.used++
			return true
		}
		if searching && s == fp {
			return false
		}
		if d := dist(s, i, mask); d < curDist {
			if searching {
				searching = false
			}
			t.slots[i], cur, curDist = cur, s, d
		}
		i = (i + 1) & mask
		curDist++
	}
}

// reinsert places a fingerprint known to be absent (growth rehash).
func (t *flatTable) reinsert(fp uint64) {
	mask := len(t.slots) - 1
	i := home(fp, mask)
	cur, curDist := fp, 0
	for {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = cur
			return
		}
		if d := dist(s, i, mask); d < curDist {
			t.slots[i], cur, curDist = cur, s, d
		}
		i = (i + 1) & mask
		curDist++
	}
}

// grow doubles the table and rehashes every occupant.
func (t *flatTable) grow() {
	old := t.slots
	t.slots = make([]uint64, 2*len(old))
	t.grows++
	for _, fp := range old {
		if fp != 0 {
			t.reinsert(fp)
		}
	}
}

// drain appends every stored fingerprint (sideband zero included) to dst
// and resets the table to empty without releasing its slot array. The
// Spill backend uses it to move the in-RAM tier onto disk.
func (t *flatTable) drain(dst []uint64) []uint64 {
	if t.hasZero {
		dst = append(dst, 0)
		t.hasZero = false
	}
	for i, fp := range t.slots {
		if fp != 0 {
			dst = append(dst, fp)
			t.slots[i] = 0
		}
	}
	t.used = 0
	return dst
}

// each calls yield on every stored fingerprint (sideband zero included)
// without disturbing the table — drain's non-destructive sibling, used by
// the checkpoint writer to snapshot a live visited set. A non-nil error
// from yield stops the walk and is returned.
func (t *flatTable) each(yield func(fp uint64) error) error {
	if t.hasZero {
		if err := yield(0); err != nil {
			return err
		}
	}
	for _, fp := range t.slots {
		if fp != 0 {
			if err := yield(fp); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *flatTable) len() int {
	n := t.used
	if t.hasZero {
		n++
	}
	return n
}

func (t *flatTable) bytes() int64 { return int64(len(t.slots)) * 8 }

// flat is the single-goroutine Flat backend.
type flat struct {
	t flatTable
}

func newFlat() *flat { return &flat{} }

func (f *flat) TryInsert(fp statespace.Fingerprint) bool {
	return f.t.tryInsert(uint64(fp), flatInitialSlots)
}

func (f *flat) Len() int { return f.t.len() }

// Reset implements Resetter. A table still at its first size is cleared and
// kept; one that grew is dropped, so the next run's table grows — and
// reports its footprint — exactly as a new store's would.
func (f *flat) Reset() {
	if len(f.t.slots) > flatInitialSlots {
		f.t = flatTable{}
		return
	}
	clear(f.t.slots)
	f.t = flatTable{slots: f.t.slots}
}

func (f *flat) Stats() Stats {
	return Stats{Backend: Flat.String(), States: f.Len(), Bytes: f.t.bytes(), Grows: f.t.grows}
}

// DumpFingerprints walks the single-goroutine table in place.
func (f *flat) DumpFingerprints(yield func(fp statespace.Fingerprint) error) error {
	return f.t.each(func(fp uint64) error { return yield(statespace.Fingerprint(fp)) })
}

// stripe is one lock-striped sub-table of the concurrent Flat variant,
// padded to exactly one cache line (mutex 8 + flatTable 48 + pad 8 = 64)
// so neighbouring stripes' mutexes and table bookkeeping never share a
// line. One line per stripe (the previous layout burned two) is a real
// chunk of the small-run footprint: 64 stripes of fixed overhead sit next
// to tables of a few hundred entries each. TestStripePadding pins the
// arithmetic.
type stripe struct {
	mu sync.Mutex
	t  flatTable
	_  [64 - 8 - unsafe.Sizeof(flatTable{})]byte
}

// stripedFlat is the concurrent Flat variant for multi-worker runs: the
// fingerprint's low bits select an independent flatTable guarded by its own
// mutex, so probing and growth never cross a stripe boundary and the
// critical section is a handful of word comparisons. There is no shared
// state counter for inserts to contend on: Len sums the stripes.
type stripedFlat struct {
	stripes []stripe
}

func newStripedFlat() *stripedFlat {
	return &stripedFlat{stripes: make([]stripe, flatStripes)}
}

func (s *stripedFlat) TryInsert(fp statespace.Fingerprint) bool {
	st := &s.stripes[uint64(fp)&(flatStripes-1)]
	st.mu.Lock()
	fresh := st.t.tryInsert(uint64(fp), flatMinStripeSlots)
	st.mu.Unlock()
	return fresh
}

// Len sums the stripes' sizes, each under its lock: a sweep over the
// stripes, taken only where a run's counts are settled — at level
// boundaries and at the end (the kernel mirrors the count for its state
// cap).
func (s *stripedFlat) Len() int {
	n := 0
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		n += sp.t.len()
		sp.mu.Unlock()
	}
	return n
}

// Stats snapshots every stripe in a single locked pass, so the reported
// States/Bytes/Grows triple is stripe-consistent: a stripe that grows
// between two separate passes can no longer surface as a torn profile
// (bytes from before the growth, grow count from after).
func (s *stripedFlat) Stats() Stats {
	st := Stats{
		Backend: Flat.String(),
		Bytes:   int64(len(s.stripes)) * int64(unsafe.Sizeof(stripe{})),
	}
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		st.States += sp.t.len()
		st.Bytes += sp.t.bytes()
		st.Grows += sp.t.grows
		sp.mu.Unlock()
	}
	return st
}

// DumpFingerprints walks each stripe under its own lock. The snapshot is stripe-consistent, which suffices at the quiescent
// points (level boundaries) where checkpoints are taken.
func (s *stripedFlat) DumpFingerprints(yield func(fp statespace.Fingerprint) error) error {
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		err := sp.t.each(func(fp uint64) error { return yield(statespace.Fingerprint(fp)) })
		sp.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
