package statespace

import (
	"sync"
	"sync/atomic"
)

// ExpandLevel fans one breadth-first level of n claims out over a pool of
// workers.
//
// A claim is one index — the model checker's is a block of up to 1,024
// states — and expand is called once per claim i with the range [i, i+1);
// the caller owns the claims and whatever the expansion emits.
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
// workers <= 1 (or a single-claim level) is one inline call expand(0, 0, n)
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

	// Workers claim the level one index at a time via an atomic cursor:
	// cheap, and self-balancing when some claims take far longer than
	// others.
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
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				stop, err := expand(w, i, i+1)
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
