package msi_test

import (
	"testing"

	"verc3/internal/msi"
	"verc3/internal/ts"
)

// stateCount pins the action-library arities to the state counts: 7 cache
// states and 7 directory states, matching the paper's "next state" action
// counts. A drive-by refactor that adds a state would silently change the
// candidate-space arithmetic; fail loudly instead.
func TestSevenStatesEach(t *testing.T) {
	cacheNames := map[string]bool{}
	for s := msi.CacheState(0); int(s) < 7; s++ {
		cacheNames[s.String()] = true
	}
	if len(cacheNames) != 7 {
		t.Errorf("cache states = %d distinct names, want 7", len(cacheNames))
	}
	dirNames := map[string]bool{}
	for s := msi.DirState(0); int(s) < 7; s++ {
		dirNames[s.String()] = true
	}
	if len(dirNames) != 7 {
		t.Errorf("dir states = %d distinct names, want 7", len(dirNames))
	}
}

// invariantByName fetches a named invariant from the system.
func invariantByName(t *testing.T, sys *msi.System, name string) ts.Invariant {
	t.Helper()
	for _, inv := range sys.Invariants() {
		if inv.Name == name {
			return inv
		}
	}
	t.Fatalf("invariant %q not found", name)
	return ts.Invariant{}
}

// mk builds a hand-crafted state for direct invariant probing.
func mk(n int, f func(*msi.State)) *msi.State {
	st := &msi.State{
		Caches: make([]msi.Cache, n),
		Dir:    msi.Dir{Owner: msi.None, Pending: msi.None},
	}
	if f != nil {
		f(st)
	}
	return st
}

// TestSWMRInvariantDirect probes the SWMR predicate on crafted states.
func TestSWMRInvariantDirect(t *testing.T) {
	sys := msi.New(msi.Config{Caches: 3})
	swmr := invariantByName(t, sys, "SWMR")
	ok := func(s *msi.State) bool { return swmr.Holds(s) }

	if !ok(mk(3, nil)) {
		t.Error("all-invalid must satisfy SWMR")
	}
	if !ok(mk(3, func(s *msi.State) { s.Caches[0].St = msi.CacheS; s.Caches[1].St = msi.CacheS })) {
		t.Error("two readers must satisfy SWMR")
	}
	if !ok(mk(3, func(s *msi.State) { s.Caches[2].St = msi.CacheM })) {
		t.Error("single writer must satisfy SWMR")
	}
	if ok(mk(3, func(s *msi.State) { s.Caches[0].St = msi.CacheM; s.Caches[1].St = msi.CacheM })) {
		t.Error("two writers must violate SWMR")
	}
	if ok(mk(3, func(s *msi.State) { s.Caches[0].St = msi.CacheM; s.Caches[1].St = msi.CacheS })) {
		t.Error("writer+reader must violate SWMR")
	}
}

// TestDataInvariantsDirect probes the value-coherence predicates.
func TestDataInvariantsDirect(t *testing.T) {
	sys := msi.New(msi.Config{Caches: 2})
	sCur := invariantByName(t, sys, "S-copy-current")
	mCur := invariantByName(t, sys, "M-copy-current")
	mem := invariantByName(t, sys, "memory-current-when-unowned")

	stale := mk(2, func(s *msi.State) {
		s.Caches[0].St = msi.CacheS
		s.Caches[0].Data = 0
		s.Ghost = 1
	})
	if sCur.Holds(stale) {
		t.Error("stale S copy must violate S-copy-current")
	}
	staleM := mk(2, func(s *msi.State) {
		s.Caches[0].St = msi.CacheM
		s.Caches[0].Data = 0
		s.Ghost = 1
	})
	if mCur.Holds(staleM) {
		t.Error("stale M copy must violate M-copy-current")
	}
	staleMem := mk(2, func(s *msi.State) {
		s.Dir.St = msi.DirS
		s.Dir.Mem = 0
		s.Ghost = 1
	})
	if mem.Holds(staleMem) {
		t.Error("stale memory in dir-S must violate memory-current")
	}
	okMem := mk(2, func(s *msi.State) {
		s.Dir.St = msi.DirM // owned: memory may be stale
		s.Dir.Mem = 0
		s.Ghost = 1
	})
	if !mem.Holds(okMem) {
		t.Error("stale memory is fine while owned")
	}
}

// TestHandshakeInvariantsDirect probes the liveness-style predicates.
func TestHandshakeInvariantsDirect(t *testing.T) {
	sys := msi.New(msi.Config{Caches: 2})
	dir := invariantByName(t, sys, "dir-handshake")
	read := invariantByName(t, sys, "read-handshake")
	write := invariantByName(t, sys, "write-handshake")

	// Directory waiting on a requester that is already done, with no Ack in
	// flight: wedged.
	wedged := mk(2, func(s *msi.State) {
		s.Dir.St = msi.DirIM
		s.Dir.Pending = 0
		s.Caches[0].St = msi.CacheM
	})
	if dir.Holds(wedged) {
		t.Error("dir-handshake must reject a wedged I_M")
	}
	// Same, but the Ack is in flight: fine.
	acked := mk(2, func(s *msi.State) {
		s.Dir.St = msi.DirIM
		s.Dir.Pending = 0
		s.Caches[0].St = msi.CacheM
		s.Net.SendInPlace(msi.Msg{Kind: msi.MsgAck, Src: 0, Dst: 2, Req: msi.None})
	})
	if !dir.Holds(acked) {
		t.Error("dir-handshake must accept an in-flight Ack")
	}
	// A reader with nothing in flight: wedged.
	stuckReader := mk(2, func(s *msi.State) { s.Caches[1].St = msi.CacheISD })
	if read.Holds(stuckReader) {
		t.Error("read-handshake must reject a stuck reader")
	}
	// A writer with nothing in flight and the directory idle: wedged.
	stuckWriter := mk(2, func(s *msi.State) { s.Caches[1].St = msi.CacheIMAD })
	if write.Holds(stuckWriter) {
		t.Error("write-handshake must reject a stuck writer")
	}
	// Writer covered by a pending Inv for its transaction: fine.
	covered := mk(2, func(s *msi.State) {
		s.Caches[1].St = msi.CacheIMA
		s.Caches[1].Acks = 1
		s.Net.SendInPlace(msi.Msg{Kind: msi.MsgInv, Src: 2, Dst: 0, Req: 1})
	})
	if !write.Holds(covered) {
		t.Error("write-handshake must accept in-flight Inv evidence")
	}
}

// TestGoalsPredicate sanity-checks the stable-state goals.
func TestGoalsPredicate(t *testing.T) {
	sys := msi.New(msi.Config{Caches: 2})
	goals := sys.Goals()
	if len(goals) != 4 {
		t.Fatalf("goals = %d, want 4", len(goals))
	}
	withS := mk(2, func(s *msi.State) { s.Caches[0].St = msi.CacheS })
	hit := 0
	for _, g := range goals {
		if g.Holds(withS) {
			hit++
		}
	}
	if hit != 1 {
		t.Errorf("cache-S state satisfies %d goals, want exactly 1", hit)
	}
}
