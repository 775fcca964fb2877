package core

import "math"

// The enumerator treats a candidate configuration as a mixed-radix number
// over the prefix of non-wildcard holes, with the first-discovered hole as
// the most significant digit. This matches the paper's worked example
// (Fig. 2): hole 1 advances slowest, newly discovered holes are appended as
// least-significant digits. A round walks its candidates as one odometer
// (cursor), and a pattern match at digit d skips the rest of the subtree
// below it by advancing at d (advanceAt): no candidate is ever named by a
// number, so rounds whose space overflows a uint64 walk like small ones.

// radices returns the per-hole action counts for the first k discovered
// holes.
func radices(holes []*holeInfo, k int) []int {
	sizes := make([]int, k)
	for i := 0; i < k; i++ {
		sizes[i] = len(holes[i].actions)
	}
	return sizes
}

// spaceSize returns the product of sizes, saturating at math.MaxUint64.
func spaceSize(sizes []int) uint64 {
	total := uint64(1)
	for _, s := range sizes {
		if s == 0 {
			return 0
		}
		us := uint64(s)
		if total > math.MaxUint64/us {
			return math.MaxUint64
		}
		total *= us
	}
	return total
}

// spaceSizePlusWildcard returns the product of (size+1) over all holes: the
// nominal candidate space including the wildcard action, which is what the
// paper's Table I reports in the "Candidates" column for pruning runs.
func spaceSizePlusWildcard(holes []*holeInfo) uint64 {
	sizes := make([]int, len(holes))
	for i, h := range holes {
		sizes[i] = len(h.actions) + 1
	}
	return spaceSize(sizes)
}

// subtreeLeft returns how many candidates, assign included, remain in
// odometer order in the subtree that shares assign's digits 0..d: the
// subtree's size less assign's offset in it. Saturates at math.MaxUint64
// like spaceSize.
func subtreeLeft(assign, sizes []int, d int) uint64 {
	size := spaceSize(sizes[d+1:])
	if size == math.MaxUint64 {
		return size
	}
	off := uint64(0)
	for i := d + 1; i < len(sizes); i++ {
		off = off*uint64(sizes[i]) + uint64(assign[i])
	}
	return size - off
}

// incr advances assign (mixed-radix, least-significant digit last) by one.
// It reports false when the odometer wraps (enumeration complete). sizes
// must have the same length as assign.
func incr(assign []int, sizes []int) bool {
	return advanceAt(assign, sizes, len(assign)-1)
}

// advanceAt zeroes the digits below position d and increments at d (with
// carry towards more significant digits): the first candidate past the
// subtree that shares digits 0..d with assign. d == -1 (a match at the
// root, i.e. an empty pattern) wraps at once. It reports false when the
// odometer wraps.
func advanceAt(assign []int, sizes []int, d int) bool {
	for i := d + 1; i < len(assign); i++ {
		assign[i] = 0
	}
	for i := d; i >= 0; i-- {
		assign[i]++
		if assign[i] < sizes[i] {
			return true
		}
		assign[i] = 0
	}
	return false
}
