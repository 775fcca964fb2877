package statespace

import (
	"sync"
	"sync/atomic"
)

// ExpandLevel fans one breadth-first level of n items out over a pool of
// workers.
//
// The level is cut into index ranges and expand is called once per range
// [lo, hi); the caller owns the items and whatever the expansion emits.
// worker is the index of the executing worker in [0, workers): it is stable
// for the goroutine making the call, so callers hang per-worker scratch
// (key buffers, output slices, counters) off it instead of sharing or
// locking. expand returns stop=true to end exploration early (property
// violation, state cap) or a non-nil error to abort the whole search;
// either ends the level without handing out the remaining ranges — ranges
// other workers already hold run to their end.
//
// ExpandLevel reports whether a stop was requested, and the first error
// observed. Which worker gets which range depends on scheduling and is NOT
// deterministic across runs — the level-synchronous structure guarantees
// BFS depth semantics regardless.
//
// workers <= 1 (or a single-item level) is one inline call expand(0, 0, n)
// on the calling goroutine, with zero scheduling overhead.
func ExpandLevel(workers, n int, expand func(worker, lo, hi int) (stop bool, err error)) (stopped bool, err error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n == 0 {
			return false, nil
		}
		stop, err := expand(0, 0, n)
		return stop || err != nil, err
	}

	// Workers claim fixed-size chunks of the level via an atomic cursor:
	// cheap, cache-friendly, and self-balancing when some states have far
	// more successors than others.
	chunk := min(max(n/(workers*8), 1), 256)
	var (
		cursor   atomic.Int64
		stopFlag atomic.Bool
		errOnce  atomic.Pointer[error]
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stopFlag.Load() {
				hi := int(cursor.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				stop, err := expand(w, lo, min(hi, n))
				if err != nil {
					errOnce.CompareAndSwap(nil, &err)
				}
				if stop || err != nil {
					stopFlag.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if ep := errOnce.Load(); ep != nil {
		return true, *ep
	}
	return stopFlag.Load(), nil
}
