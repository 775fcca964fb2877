package statespace_test

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"verc3/internal/statespace"
)

// expandDoubling is a synthetic successor function over the level
// 0..n-1: item i emits 2i+1 and 2i+2 while below a bound — a binary tree —
// into the calling worker's own output slice, the per-worker scratch idiom
// the worker index exists for.
func expandDoubling(bound int, out [][]int) func(w, lo, hi int) (bool, error) {
	return func(w, lo, hi int) (bool, error) {
		for i := lo; i < hi; i++ {
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < bound {
					out[w] = append(out[w], c)
				}
			}
		}
		return false, nil
	}
}

// flatten concatenates and sorts the workers' outputs.
func flatten(out [][]int) []int {
	var all []int
	for _, o := range out {
		all = append(all, o...)
	}
	sort.Ints(all)
	return all
}

// TestExpandLevelMatchesSequential checks the parallel expansion of a level
// emits exactly the same multiset as the sequential one, for several worker
// counts.
func TestExpandLevelMatchesSequential(t *testing.T) {
	const n = 200
	seq := make([][]int, 1)
	stopped, err := statespace.ExpandLevel(1, n, expandDoubling(1000, seq))
	if err != nil || stopped {
		t.Fatalf("sequential: stopped=%v err=%v", stopped, err)
	}
	want := flatten(seq)
	for _, workers := range []int{2, 4, 16, 1000} {
		out := make([][]int, workers)
		stopped, err := statespace.ExpandLevel(workers, n, expandDoubling(1000, out))
		if err != nil || stopped {
			t.Fatalf("workers=%d: stopped=%v err=%v", workers, stopped, err)
		}
		got := flatten(out)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d items, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestExpandLevelStop checks a stop request ends the level early and is
// reported.
func TestExpandLevelStop(t *testing.T) {
	const n = 10000
	var processed atomic.Int64
	stopped, err := statespace.ExpandLevel(4, n, func(_, lo, hi int) (bool, error) {
		return processed.Add(int64(hi-lo)) >= 100, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Error("stop not reported")
	}
	if processed.Load() == n {
		t.Error("stop did not cut the level short")
	}
}

// TestExpandLevelError checks an expansion error aborts and propagates.
func TestExpandLevelError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		stopped, err := statespace.ExpandLevel(workers, 1000, func(int, int, int) (bool, error) {
			return false, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
		if !stopped {
			t.Errorf("workers=%d: error must imply stopped", workers)
		}
	}
}

// TestExpandLevelWorkerIndex checks the per-worker scratch contract: every
// expand call carries a worker index in [0, workers), the index is stable
// for the executing goroutine (two calls with the same index never run
// concurrently), the ranges tile the level exactly once, and the inline
// path is one call with index 0 over the whole level.
func TestExpandLevelWorkerIndex(t *testing.T) {
	calls := 0
	_, err := statespace.ExpandLevel(1, 3, func(w, lo, hi int) (bool, error) {
		calls++
		if w != 0 || lo != 0 || hi != 3 {
			t.Errorf("inline path: expand(%d, %d, %d), want (0, 0, 3)", w, lo, hi)
		}
		return false, nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("inline path: %d calls, err=%v", calls, err)
	}

	const workers, n = 4, 5000
	var busy [workers]atomic.Bool
	var seen [n]atomic.Int32
	_, err = statespace.ExpandLevel(workers, n, func(w, lo, hi int) (bool, error) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
			return true, nil
		}
		if !busy[w].CompareAndSwap(false, true) {
			t.Errorf("worker index %d used concurrently — per-worker scratch would race", w)
			return true, nil
		}
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
		busy[w].Store(false)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("item %d expanded %d times, want once", i, c)
		}
	}
}

// TestExpandLevelEmpty checks the degenerate case: no items, no calls.
func TestExpandLevelEmpty(t *testing.T) {
	stopped, err := statespace.ExpandLevel(4, 0, func(int, int, int) (bool, error) {
		t.Error("expand called on an empty level")
		return false, nil
	})
	if err != nil || stopped {
		t.Fatalf("empty level: stopped=%v err=%v", stopped, err)
	}
}
