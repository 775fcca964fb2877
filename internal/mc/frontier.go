package mc

import (
	"math/bits"
	"slices"
)

// The frontier is made of blocks: slices of items whose storage a session
// keeps and recycles. Every frontier the kernel holds — a BFS level, a
// worker's share of the next level, the DFS stack — is an ordered list of
// blocks, and every block comes from, and goes back to, a worker's free
// list. A worker appends into a block of its own; the level boundary
// concatenates the workers' block lists without copying an entry; a block
// goes back to the free list of the worker that expanded it as soon as its
// last entry is expanded. What a run allocates for its frontier is then the
// most it ever held at once plus a few partly used blocks per worker, at any
// width (see TestFrontierFootprint).

// blockMin and blockMax bound a block's capacity. A session's first block
// holds blockMin entries and each further block it allocates twice as many
// as its last, up to blockMax: the ~75-state checks of a synthesis run fit
// each level in a block or two, and a million-state walk moves 32 KiB
// blocks.
const (
	blockMin = 16
	blockMax = 1024
)

// blocks is an ordered list of blocks. Its first few headers live in the
// list itself, so the handful of blocks a small check holds needs no
// header allocation; it must not be copied once used. Past those it grows
// by at least 32 headers at a time, so a larger run's lists reach their
// size in one or two allocations.
type blocks struct {
	list   [][]item
	inline [4][]item
}

// add appends b to the list.
func (l *blocks) add(b []item) {
	if l.list == nil {
		l.list = l.inline[:0]
	}
	if len(l.list) == cap(l.list) {
		l.list = slices.Grow(l.list, 32)
	}
	l.list = append(l.list, b)
}

// push appends it to w's output: the block being filled (tip), or a new one
// when that is full.
func (e *explorer) push(w *worker, it item) {
	if len(w.tip) == cap(w.tip) {
		e.turn(w)
	}
	w.tip = append(w.tip, it)
	w.n++
}

// turn moves a full tip into w's output list and starts a fresh block.
func (e *explorer) turn(w *worker) {
	if len(w.tip) > 0 {
		w.out.add(w.tip)
	}
	w.tip = e.block(w)
}

// pop removes the entry pushed last from w's output, which DFS runs as a
// stack; w.n must be positive. An emptied tip goes back to the free list.
func (w *worker) pop() item {
	if len(w.tip) == 0 {
		if cap(w.tip) > 0 {
			w.free.add(w.tip)
		}
		last := len(w.out.list) - 1
		w.tip = w.out.list[last]
		w.out.list[last] = nil
		w.out.list = w.out.list[:last]
	}
	last := len(w.tip) - 1
	it := w.tip[last]
	w.tip[last] = item{}
	w.tip = w.tip[:last]
	w.n--
	return it
}

// flush moves a non-empty tip into the output list, so the list holds w's
// whole output.
func (w *worker) flush() {
	if len(w.tip) > 0 {
		w.out.add(w.tip)
		w.tip = nil
	}
}

// block returns an empty block for w: the smallest on w's free list, or a
// new one sized to the frontier it joins (see blockMin). Smallest first
// keeps the unfilled tail of a block being filled, and the spent head of
// one being expanded, short: that is what lets a session's later checks of
// a model run in the blocks its first check allocated.
func (e *explorer) block(w *worker) []item {
	if l := w.free.list; len(l) > 0 {
		last, best := len(l)-1, len(l)-1
		for i := last - 1; i >= 0 && cap(l[best]) > blockMin; i-- {
			if cap(l[i]) < cap(l[best]) {
				best = i
			}
		}
		b := l[best]
		l[best], l[last] = l[last], nil
		w.free.list = l[:last]
		return b
	}
	c := min(max(1<<bits.Len(uint(max(e.levelLen, w.n)/2)), blockMin), blockMax)
	w.allocated += c
	return make([]item, 0, c)
}

// drop returns block b to w's free list. The states its entries still hold
// go back to the system's pool first when the kernel alone owns them: in
// traceless runs, where no trace node references a frontier state.
func (e *explorer) drop(w *worker, b []item) {
	if !e.opt.RecordTrace {
		for _, it := range b {
			if it.state != nil {
				e.recycle(w, it.state)
			}
		}
	}
	clear(b)
	w.free.add(b[:0])
}
