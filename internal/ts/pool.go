package ts

import (
	"sync"
	"sync/atomic"
)

// Pool is the successor pool of a recycling system: dead states of concrete
// type S wait in it for the next FireRule to overwrite them. A system that
// embeds a Pool implements Recycler and PoolReporter through it; its
// FireRule asks Get for storage and either overwrites what it is handed
// (S's own CopyFrom: Clone into existing storage, leaving the receiver
// sharing nothing with the source) or, on a miss, Clones the source. The
// free list is a sync.Pool, whose per-P lists give each exploration worker
// a private one; the zero value is an empty pool, and a Pool must not be
// copied after first use.
type Pool[S State] struct {
	free   sync.Pool
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Get takes a recycled state out of the pool. Its contents are stale and
// the caller owns it outright; ok is false when the pool is empty (start of
// an exploration, or every state still checked out).
func (p *Pool[S]) Get() (s S, ok bool) {
	if v := p.free.Get(); v != nil {
		p.hits.Add(1)
		return v.(S), true
	}
	p.misses.Add(1)
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

// PoolStats implements PoolReporter: Gets served from recycled storage,
// and Gets that found the pool empty.
func (p *Pool[S]) PoolStats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}
