// Package tstest holds test helpers for ts.System implementations and for
// the checker that explores them.
//
// Its exactness oracle answers the one question the checker's keying
// cannot answer about itself. The checker stores a 64-bit fingerprint per
// state and nothing else — Murphi-style hash compaction (Stern & Dill,
// "Improved probabilistic verification by hash compaction", CHARME 1995) —
// so two distinct states that share a fingerprint would silently merge:
// one of them, and everything only it reaches, would go unexplored. The
// oracle re-explores a system keeping each state's exact identity and
// fails the test the moment two distinct identities share the fingerprint
// the checker gives them. A run it passes is therefore exact: the
// checker's fingerprints were injective on everything that run reached. A
// run it was not applied to stays probabilistic (the birthday bound in
// package statespace).
package tstest

import (
	"errors"
	"testing"

	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// Oracle explores systems by exact state identity and holds one
// fingerprint table across every exploration it makes, so several
// explorations — the candidates of a synthesis run — are checked for
// merges against each other as well as within themselves.
//
// It walks breadth-first through the system's own methods only — Initial,
// then AppendRules, FireRule and RuleName — with none of the checker's
// machinery: no keyer, visited store, reused rule buffer or pool. It takes
// the steps the checker's one-worker BFS takes, in the same order, and
// stops where that search stops: at the first state that violates an
// invariant and at the first deadlock (a state that is not quiescent and
// has no successor, not even one behind a wildcard). So on a correct
// checker its state count and depth are the checker's, whatever the
// verdict.
//
// A state's identity is its AppendKey encoding or, under symmetry, its
// canonical Key over every permutation of its agents (symmetry.Canonicalizer.Key, the exhaustive reference). Each
// offered state's identity is compared byte for byte with the identity
// already holding its fingerprint — the fingerprint the checker keys it by:
// statespace.OfBytes of the encoding, or Canonicalizer.Fingerprint. An
// exploration counts distinct identities by their own 64-bit hash; a
// collision there could only undercount, which a caller comparing counts
// with the checker sees as a mismatch, never as a pass.
//
// The identities live back to back in fixed-size chunks, indexed by a
// table without pointers, so a walk of millions of states costs about its
// encodings' bytes, never copies them to grow, and gives the garbage
// collector nothing to scan.
type Oracle struct {
	// Keys identifies states that have an encoding by their Key string
	// instead, while still fingerprinting the encoding as the checker does.
	// That holds the models to the keying contract the checker rests on —
	// equal encodings exactly when equal Keys: a field a hand-written
	// encoder forgot (two Keys, one encoding) is a fingerprint merge, and
	// the reverse (one Key, two encodings) a state count below the
	// checker's. It formats every offered state's Key, which dominates the
	// cost of a large walk. Symmetry reduction ignores it.
	Keys bool

	tb    testing.TB
	ids   [][]byte                        // every fingerprinted identity, in chunks
	owner map[statespace.Fingerprint]span // fingerprint → the identity that took it

	// The exploration under way.
	canon *symmetry.Canonicalizer             // nil: no reduction
	seen  map[statespace.Fingerprint]struct{} // hashes of the identities reached
	buf   []byte                              // the identity of the state being admitted
}

// span locates one identity in Oracle.ids.
type span struct{ chunk, off, end uint32 }

// New returns an oracle with an empty fingerprint table that reports
// through tb.
func New(tb testing.TB) *Oracle {
	return &Oracle{tb: tb, owner: make(map[statespace.Fingerprint]span)}
}

// Result is what one exploration reached: the checker's VisitedStates and
// MaxDepth for the same run at one worker.
type Result struct {
	// States is the number of distinct identities reached.
	States int
	// Depth is the BFS depth of the deepest of them (0 for initial states).
	Depth int
}

// Identities returns the number of fingerprints the table holds — each
// owned by one identity — over every exploration so far.
func (o *Oracle) Identities() int { return len(o.owner) }

// Fingerprints returns every fingerprint the table holds, in no particular
// order.
func (o *Oracle) Fingerprints() []statespace.Fingerprint {
	fps := make([]statespace.Fingerprint, 0, len(o.owner))
	for fp := range o.owner {
		fps = append(fps, fp)
	}
	return fps
}

// Explore walks the states of sys reachable under env, dropping firings
// that fail with ts.ErrWildcard as the checker does, and returns what it
// reached. With reduce set, states are identified up to agent permutation
// wherever the checker's Options.Symmetry would reduce: when some initial
// state is ts.Permutable. Any other firing error, or a fingerprint shared
// by two identities, fails the test.
func (o *Oracle) Explore(sys ts.System, env *ts.Env, reduce bool) Result {
	o.seen, o.canon = make(map[statespace.Fingerprint]struct{}), nil
	if reduce {
		o.canon = symmetry.For(sys)
	}
	invs := sys.Invariants()
	quies, _ := sys.(ts.QuiescentReporter)
	var res Result
	var next []ts.State
	// offer admits s at depth and reports whether the search ends there, at
	// a state that violates an invariant.
	offer := func(s ts.State, depth int) bool {
		if !o.admit(s) {
			return false
		}
		res = Result{States: len(o.seen), Depth: depth}
		next = append(next, s)
		for _, inv := range invs {
			if !inv.Holds(s) {
				return true
			}
		}
		return false
	}
	for _, s := range sys.Initial() {
		if offer(s, 0) {
			return res
		}
	}
	for depth := 1; len(next) > 0; depth++ {
		level := next
		next = nil
		for _, s := range level {
			succs, blocked := 0, 0
			for _, r := range sys.AppendRules(nil, s) {
				succ, err := sys.FireRule(s, r, env)
				if errors.Is(err, ts.ErrWildcard) {
					blocked++
					continue
				}
				if err != nil {
					o.tb.Fatalf("tstest: %s: transition %q from %q: %v", sys.Name(), sys.RuleName(r), s.Key(), err)
				}
				succs++
				if offer(succ, depth) {
					return res
				}
			}
			if succs == 0 && blocked == 0 && (quies == nil || !quies.Quiescent(s)) {
				return res // deadlock
			}
		}
	}
	return res
}

// admit checks s's identity against the fingerprint table and reports
// whether s is new to this exploration.
func (o *Oracle) admit(s ts.State) bool {
	fp := o.identify(s)
	if sp, taken := o.owner[fp]; !taken {
		o.owner[fp] = o.store(o.buf)
	} else if other := o.ids[sp.chunk][sp.off:sp.end]; string(other) != string(o.buf) {
		o.tb.Fatalf("tstest: fingerprint merge: %#x is the fingerprint of both %q and %q (state %s)",
			uint64(fp), other, o.buf, s.Key())
	}
	id := statespace.OfBytes(o.buf)
	if _, dup := o.seen[id]; dup {
		return false
	}
	o.seen[id] = struct{}{}
	return true
}

// identify puts s's identity in o.buf and returns the fingerprint the
// checker keys s by.
func (o *Oracle) identify(s ts.State) statespace.Fingerprint {
	if o.canon != nil {
		o.buf = append(o.buf[:0], o.canon.Key(s)...)
		return o.canon.Fingerprint(s)
	}
	o.buf = s.AppendKey(o.buf[:0])
	fp := statespace.OfBytes(o.buf)
	if o.Keys {
		o.buf = append(o.buf[:0], s.Key()...)
	}
	return fp
}

// store copies id into the arena and returns where it lies. Chunks hold
// 1 MiB (an identity longer than that gets a chunk of its own) and never
// move once allocated.
func (o *Oracle) store(id []byte) span {
	if n := len(o.ids); n == 0 || len(o.ids[n-1])+len(id) > cap(o.ids[n-1]) {
		o.ids = append(o.ids, make([]byte, 0, max(1<<20, len(id))))
	}
	c := &o.ids[len(o.ids)-1]
	*c = append(*c, id...)
	return span{uint32(len(o.ids) - 1), uint32(len(*c) - len(id)), uint32(len(*c))}
}
