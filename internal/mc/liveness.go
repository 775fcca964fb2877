// Liveness checking: a sequential nested-DFS accepting-cycle search over
// the product of the system's state graph with each liveness goal's negated
// Büchi monitor (Courcoubetis–Vardi–Wolper–Yannakakis, with the
// Schwoon–Esparza early-detection refinement in the outer search).
//
// # Negated monitors
//
// A goal's violations are the executions satisfying its negation, so each
// goal compiles to a tiny Büchi monitor for ¬goal and the checker looks for
// a reachable cycle through an accepting product state:
//
//   - EventuallyAlways (FG P) negates to GF ¬P. The monitor has a single
//     state; acceptance is a property of the system state (¬P holds), so
//     the product is the plain state graph.
//   - LeadsTo (G(P → F Q)) negates to F(P ∧ G ¬Q). The monitor is the
//     standard nondeterministic two-state automaton: q0 loops on anything
//     and guesses the violation start by branching to q1 on a P∧¬Q state;
//     q1 survives only while ¬Q holds and is accepting. The
//     nondeterminism is essential — a deterministic "pending request" bit
//     is unsound here, because a cycle can satisfy Q and re-raise P, which
//     recurs Q and is not a violation yet would keep a pending bit set.
//
// # Weak fairness (the copies construction)
//
// A Fair goal on a system declaring n weak-fairness requirements runs on
// the product extended with a copy counter c ∈ 0..n (Choueka's flag
// construction): from c=0 a step taken out of an accepting state moves to
// c=1, and from c=i≥1 the counter advances (wrapping n→0) exactly when
// requirement i is discharged at that step — not enabled at the source
// state, or the fired transition is one of its. Acceptance is restricted to
// c=0, so any accepting cycle must wrap the counter through every
// requirement: each is infinitely often disabled-or-taken along it, which
// is precisely weak fairness. With n=0 the construction degenerates to the
// plain product.
//
// # What the phase shares with the safety kernel
//
// The phase runs on the session's worker 0 once the safety pass has
// finished and no worker is running, and takes from it everything that is
// not the search itself: the rule buffer and the system as records
// (AppendRules), explorer.fire (the one FireRule call site, which counts
// wildcard branches), the keyer (its product form: the system state's
// encoding extended with the monitor and copy bytes), explorer.recycle
// (rejected product successors and popped stack states return to the pool
// and count toward Space.Recycled), the cancellation poll and its stride,
// panic containment through explorer.contain with the state being expanded,
// and the telemetry stage. Its wildcard and recycle tallies fold into the
// Result through explorer.sum like the safety pass's, and a recorded abort
// becomes the Aborted verdict once, at the end of the phase.
//
// What stays its own is the search: the monitors and the fairness copies
// above, the blue/cyan/red colouring — two visited.Store instances (the blue
// "done" set and the red "confirmed cycle-free" set) plus a cyan map for
// the states on the outer DFS stack, all keyed by product fingerprint — and
// lasso assembly.
//
// Symmetry reduction is deliberately NOT applied to product keys even when
// Options.Symmetry is set: liveness predicates are typically per-process
// ("process 0 eventually holds the token") and not permutation-invariant,
// so cycle detection on the quotient graph is unsound — the same
// restriction TLC imposes. The safety pass still reduces; only this phase
// keys raw encodings.
//
// # Lassos
//
// A violation is reported as a lasso: the outer stack provides the stem
// and the cycle prefix, the inner (red) stack provides the cycle suffix
// for cycles detected by the nested search, and the closing transition's
// fired successor — which revisits the state at FailureInfo.CycleStart —
// is appended as the final trace step. Because the search is sequential
// and deterministic, the same lasso is reported across visited backends,
// worker counts and search orders, which the zoo-wide differential harness
// pins.
package mc

import (
	"fmt"

	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// lsucc is one product state: a system state (owned exclusively by this
// entry) with the transition that led into it, its monitor state, fairness
// copy, product fingerprint and acceptance.
type lsucc struct {
	state ts.State
	rule  string
	fp    statespace.Fingerprint
	q, c  uint8
	acc   bool
}

// lframe is one frame of the blue or red DFS stack. succs is nil until the
// frame is first expanded; next indexes the successor to process.
type lframe struct {
	lsucc
	succs []lsucc
	next  int
}

// liveChecker runs the per-goal nested DFS on worker w of explorer e. One
// instance serves all goals of a run; the per-goal colour stores are
// rebuilt in checkGoal (acceptance differs per goal, so product
// fingerprints are not comparable across goals).
type liveChecker struct {
	e *explorer
	w *worker
	// names says whether anything will read a successor's transition name:
	// a recorded lasso, or a fairness requirement's Taken.
	names bool

	goal ts.LivenessGoal
	fair []ts.Fairness // active requirements (nil when goal is not Fair)

	blue  visited.Store
	red   visited.Store
	cyan  map[statespace.Fingerprint]int // product fp → blue stack index
	stack []lframe                       // blue (outer) stack
	rst   []lframe                       // red (inner) stack

	admitted int // blue insertions, for the MaxStates cap
}

// checkLiveness runs the nested-DFS phase over every liveness goal of e's
// system, in the context and environment of e's current check, updating
// e.res in place: the first violated goal flips the verdict to Failure
// with a FailLiveness lasso. Called only after a safety pass that did not
// fail or abort; a no-op when the system reports no goals.
func checkLiveness(e *explorer) error {
	lr, ok := e.sys.(ts.LivenessReporter)
	if !ok {
		return nil
	}
	goals := lr.LivenessGoals()
	if len(goals) == 0 {
		return nil
	}
	l := &liveChecker{e: e, w: &e.workers[0]}
	var err error
	// The deadline may have expired between the safety pass and this phase.
	if !e.cancelled() {
		for _, g := range goals {
			var stop bool
			if stop, err = l.checkGoal(g); stop || err != nil {
				break
			}
		}
	}
	e.sum()
	l.w.ow.Flush()
	res := e.res
	res.Space.Recycled = e.recycled
	switch {
	case res.Verdict == Failure: // a lasso, recorded by failLasso
	case res.Abort != nil:
		res.Verdict = Aborted
	case res.CapHit || res.WildcardHit:
		// No cycle found, but branches were dropped (wildcard holes) or the
		// product-state cap cut the search short: the pass is inconclusive,
		// exactly like the safety phase's downgrades.
		res.Verdict = Unknown
	}
	return err
}

// checkGoal runs one goal's accepting-cycle search and reports whether the
// phase should stop: the goal failed (res already updated with the lasso),
// the run was cancelled, or a panic out of the model or a goal predicate
// was contained — whose abort carries the key of the state being expanded.
// The colour stores are closed and counted on every way out, the unwind of
// a contained panic included.
func (l *liveChecker) checkGoal(g ts.LivenessGoal) (stop bool, err error) {
	e := l.e
	defer e.contain(l.w, &stop)
	l.goal = g
	l.fair = nil
	if g.Fair {
		if fr, ok := e.sys.(ts.FairnessReporter); ok {
			l.fair = fr.WeakFairness()
		}
	}
	l.names = e.opt.RecordTrace || len(l.fair) > 0
	l.blue = visited.New(visitedConfig(e.opt))
	l.red = visited.New(visitedConfig(e.opt))
	defer func() {
		if cerr := closeStore(l.blue); err == nil {
			err = cerr
		}
		if cerr := closeStore(l.red); err == nil {
			err = cerr
		}
		e.res.Space.LiveStates += l.blue.Len()
		e.res.Space.RedStates += l.red.Len()
		l.blue, l.red = nil, nil
	}()
	l.cyan = make(map[statespace.Fingerprint]int)

	for _, s0 := range e.sys.Initial() {
		// The negated monitor may start in several states (the LeadsTo
		// automaton can guess the violation begins immediately); each gets
		// its own product root, and extras Clone the system state so every
		// entry owns its storage and can be recycled on its own.
		l.w.cur = s0
		for i, q0 := range l.monitorInit(s0) {
			s := s0
			if i > 0 {
				s = s0.Clone()
			}
			if lasso, found, err := l.dfsBlue(l.product(s, "", q0, 0)); err != nil {
				return true, err
			} else if found {
				l.failLasso(lasso)
				return true, nil
			}
			if e.res.Abort != nil {
				return true, nil
			}
		}
	}
	return false, nil
}

// --- Negated Büchi monitors -------------------------------------------

// Monitor states. For EventuallyAlways only qInit exists; for LeadsTo,
// qInit is the waiting state and qPend the accepting "P seen, ¬Q since"
// state.
const (
	qInit uint8 = 0
	qPend uint8 = 1
)

// monitorInit returns the monitor states consistent with reading the
// initial system state's label.
func (l *liveChecker) monitorInit(s ts.State) []uint8 {
	if l.goal.Kind == ts.LeadsTo && l.goal.P(s) && !l.goal.Q(s) {
		return []uint8{qInit, qPend}
	}
	return []uint8{qInit}
}

// monitorStep appends to dst the monitor successors of q upon reading the
// label of target system state t. An empty result kills the branch (the
// LeadsTo pending state dies when Q is satisfied).
func (l *liveChecker) monitorStep(dst []uint8, q uint8, t ts.State) []uint8 {
	if l.goal.Kind == ts.EventuallyAlways {
		return append(dst, qInit)
	}
	switch q {
	case qInit:
		dst = append(dst, qInit)
		if l.goal.P(t) && !l.goal.Q(t) {
			dst = append(dst, qPend)
		}
	case qPend:
		if !l.goal.Q(t) {
			dst = append(dst, qPend)
		}
	}
	return dst
}

// accepting reports Büchi acceptance of the product state (s, q, c):
// monitor acceptance restricted to fairness copy 0.
func (l *liveChecker) accepting(s ts.State, q, c uint8) bool {
	if c != 0 {
		return false
	}
	if l.goal.Kind == ts.EventuallyAlways {
		return !l.goal.P(s) // negation GF ¬P: accepting where ¬P holds
	}
	return q == qPend
}

// nextCopy advances the fairness copy counter across the step src →(rule)→
// target. A product root starts at copy 0. From copy 0 the counter starts
// a round iff src is accepting; from copy i ∈ 1..n it advances (wrapping
// n → 0) iff requirement i is discharged at this step: not enabled at src,
// or the fired rule is one of its transitions.
func (l *liveChecker) nextCopy(src *lframe, rule string) uint8 {
	n := len(l.fair)
	if n == 0 {
		return 0
	}
	if src.c == 0 {
		if src.acc {
			return 1
		}
		return 0
	}
	req := l.fair[src.c-1]
	if !req.Enabled(src.state) || req.Taken(rule) {
		if int(src.c) == n {
			return 0
		}
		return src.c + 1
	}
	return src.c
}

// --- Product construction ---------------------------------------------

// product assembles the product state (s, q, c) reached by rule, keyed by
// the worker's keyer without symmetry canonicalization (see the package
// comment).
func (l *liveChecker) product(s ts.State, rule string, q, c uint8) lsucc {
	return lsucc{
		state: s,
		rule:  rule,
		fp:    l.w.key.product(s, q, c),
		q:     q,
		c:     c,
		acc:   l.accepting(s, q, c),
	}
}

// expand fires every transition enabled in f.state and returns the product
// successors. One fired system state can back several product states (the
// LeadsTo monitor branches); the first takes ownership of the fired state
// and the rest clone it, so each lsucc owns its storage exclusively. Fired
// states with no product successor (dead monitor branches) are recycled
// immediately.
func (l *liveChecker) expand(f *lframe) ([]lsucc, error) {
	e, w := l.e, l.w
	w.cur = f.state
	w.ow.Tick()
	w.rules = e.sys.AppendRules(w.rules[:0], f.state)
	var succs []lsucc
	var qs [2]uint8
	for _, r := range w.rules {
		next, err := e.fire(w, f.state, r)
		if err != nil {
			return nil, fmt.Errorf("mc: liveness goal %q: %w", l.goal.Name, err)
		}
		if next == nil {
			continue // a wildcard branch
		}
		name := ""
		if l.names {
			name = e.sys.RuleName(r)
		}
		c := l.nextCopy(f, name)
		qlist := l.monitorStep(qs[:0], f.q, next)
		if len(qlist) == 0 {
			e.recycle(w, next)
			continue
		}
		for i, q := range qlist {
			s := next
			if i > 0 {
				s = next.Clone()
			}
			succs = append(succs, l.product(s, name, q, c))
		}
	}
	if succs == nil {
		succs = []lsucc{} // expanded with no successors, unlike a nil succs
	}
	return succs, nil
}

// --- Nested DFS --------------------------------------------------------

// lasso is a detected accepting cycle, in stack coordinates: the blue
// stack holds the stem and the cycle prefix, rest (the red stack minus its
// seed, which is the blue top) holds the cycle suffix for nested-search
// detections, and closing is the successor that revisited the blue stack
// at index cycleStart.
type lasso struct {
	cycleStart int
	rest       []lframe
	closing    lsucc
}

// step is the one move both searches make on their top frame f: it polls
// for cancellation (stop: the abort is recorded) and returns f's next
// successor, expanding f on first use, or nil once f is exhausted.
func (l *liveChecker) step(f *lframe) (t *lsucc, stop bool, err error) {
	if l.e.poll(l.w) {
		return nil, true, nil
	}
	if f.succs == nil {
		if f.succs, err = l.expand(f); err != nil {
			return nil, true, err
		}
	}
	if f.next == len(f.succs) {
		return nil, false, nil
	}
	f.next++
	return &f.succs[f.next-1], false, nil
}

// dfsBlue is the outer search: an iterative post-order DFS that seeds the
// nested red search at accepting states on pop, with the Schwoon–Esparza
// early check on every edge into the cyan (on-stack) set — if either
// endpoint is accepting, the stack already closes an accepting cycle and
// no nested search is needed.
func (l *liveChecker) dfsBlue(root lsucc) (lasso, bool, error) {
	e, w := l.e, l.w
	if !l.blue.TryInsert(root.fp) {
		return lasso{}, false, nil // reached by an earlier root
	}
	l.admitted++
	w.ow.Inc(obs.CBlue)
	l.cyan[root.fp] = 0
	l.stack = append(l.stack[:0], lframe{lsucc: root})
	for len(l.stack) > 0 {
		if e.opt.MaxStates > 0 && l.admitted > e.opt.MaxStates {
			e.res.CapHit = true
			return lasso{}, false, nil
		}
		f := &l.stack[len(l.stack)-1]
		t, stop, err := l.step(f)
		if stop {
			return lasso{}, false, err
		}
		if t != nil {
			if at, onStack := l.cyan[t.fp]; onStack {
				if f.acc || t.acc {
					return lasso{cycleStart: at, closing: *t}, true, nil
				}
				e.recycle(w, t.state)
				continue
			}
			if !l.blue.TryInsert(t.fp) {
				e.recycle(w, t.state) // already fully explored
				continue
			}
			l.admitted++
			w.ow.Inc(obs.CBlue)
			l.cyan[t.fp] = len(l.stack)
			l.stack = append(l.stack, lframe{lsucc: *t})
			continue
		}
		// Post-order: seed the nested search at accepting states while the
		// frame is still cyan, so a cycle back into the stack is caught.
		if f.acc {
			cyc, found, err := l.dfsRed(f)
			if found || err != nil {
				return cyc, found, err
			}
		}
		delete(l.cyan, f.fp)
		popped := l.stack[len(l.stack)-1]
		l.stack = l.stack[:len(l.stack)-1]
		// Nothing references a popped state: counterexamples are built
		// from live stacks only, so its storage returns to the pool.
		e.recycle(w, popped.state)
	}
	return lasso{}, false, nil
}

// dfsRed is the nested search, seeded at an accepting state s (the current
// blue top, still cyan): if any state on the blue stack is reachable from
// s, the stack path from it down to s plus the red path back completes an
// accepting cycle. States confirmed cycle-free are marked red and never
// re-searched (the classical CVWY invariant: earlier, deeper seeds have
// already exonerated them).
func (l *liveChecker) dfsRed(seed *lframe) (lasso, bool, error) {
	e, w := l.e, l.w
	if l.red.TryInsert(seed.fp) {
		w.ow.Inc(obs.CRed)
	}
	// The seed frame shares its state with the blue stack; the red stack's
	// copy must never be recycled on pop.
	l.rst = append(l.rst[:0], lframe{lsucc: seed.lsucc})
	for len(l.rst) > 0 {
		t, stop, err := l.step(&l.rst[len(l.rst)-1])
		if stop {
			return lasso{}, false, err
		}
		if t != nil {
			if at, onStack := l.cyan[t.fp]; onStack {
				rest := make([]lframe, len(l.rst)-1)
				copy(rest, l.rst[1:])
				return lasso{cycleStart: at, rest: rest, closing: *t}, true, nil
			}
			if !l.red.TryInsert(t.fp) {
				e.recycle(w, t.state)
				continue
			}
			w.ow.Inc(obs.CRed)
			l.rst = append(l.rst, lframe{lsucc: *t})
			continue
		}
		popped := l.rst[len(l.rst)-1]
		l.rst = l.rst[:len(l.rst)-1]
		if len(l.rst) > 0 { // rst[0] is the seed: owned by the blue stack
			e.recycle(w, popped.state)
		}
	}
	return lasso{}, false, nil
}

// failLasso records the accepting cycle as a FailLiveness verdict. With
// RecordTrace on, the counterexample is assembled from the live stacks:
// blue stack (stem + cycle prefix), red path (cycle suffix), and the
// closing step, whose state revisits Trace[CycleStart].State.
func (l *liveChecker) failLasso(cyc lasso) {
	res := l.e.res
	res.Verdict = Failure
	fi := &FailureInfo{
		Kind:       FailLiveness,
		Name:       l.goal.Name,
		UsageMask:  ^uint64(0),
		CycleStart: cyc.cycleStart,
	}
	if l.e.opt.RecordTrace {
		steps := make([]TraceStep, 0, len(l.stack)+len(cyc.rest)+1)
		for i := range l.stack {
			steps = append(steps, TraceStep{Rule: l.stack[i].rule, State: l.stack[i].state})
		}
		for i := range cyc.rest {
			steps = append(steps, TraceStep{Rule: cyc.rest[i].rule, State: cyc.rest[i].state})
		}
		steps = append(steps, TraceStep{Rule: cyc.closing.rule, State: cyc.closing.state})
		fi.Trace = steps
	}
	res.Space.CycleLen = len(l.stack) + len(cyc.rest) + 1 - (cyc.cycleStart + 1)
	res.Failure = fi
}
