package ts

import "sync"

// Pool is the successor pool of a recycling system: dead states of concrete
// type S wait in it for the next FireRule to overwrite them. A system that
// embeds a Pool implements Recycler through it; its FireRule asks Get for
// storage and either overwrites what it is handed (S's own CopyFrom: Clone
// into existing storage, leaving the receiver sharing nothing with the
// source) or, on a miss, Clones the source. The free list is a sync.Pool,
// whose per-P lists give each exploration worker a private one; the zero
// value is an empty pool, and a Pool must not be copied after first use.
//
// The pool keeps no counters: Get tallies its hits and misses on the
// environment the firing runs in, which the model checker gives each of its
// workers a copy of (Env.Fork), so counting shares no memory between
// workers or between concurrent checks of one system.
type Pool[S State] struct {
	free sync.Pool
}

// Get takes a recycled state out of the pool, tallying the hit or the miss
// on env (nil: not tallied). Its contents are stale and the caller owns it
// outright; ok is false when the pool is empty (start of an exploration, or
// every state still checked out).
func (p *Pool[S]) Get(env *Env) (s S, ok bool) {
	if v := p.free.Get(); v != nil {
		if env != nil {
			env.hits++
		}
		return v.(S), true
	}
	if env != nil {
		env.misses++
	}
	return s, false
}

// Recycle implements Recycler: s's storage seeds a later Get. The caller
// must own s outright (see the package comment); states that are not an S
// are ignored.
func (p *Pool[S]) Recycle(s State) {
	if st, ok := s.(S); ok {
		p.free.Put(st)
	}
}
