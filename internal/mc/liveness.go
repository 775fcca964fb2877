// Liveness checking: a sequential nested-DFS accepting-cycle search over
// the product of the system's state graph with each liveness goal's negated
// Büchi monitor (Courcoubetis–Vardi–Wolper, with the Schwoon–Esparza
// early-detection refinement in the outer search).
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
// # Sharing the exploration substrate
//
// The search stores only 64-bit fingerprints of product states — the
// system state's binary encoding (ts.KeyAppender, same pipeline as the
// safety kernel, with the same Key() fallback) extended with the monitor
// and copy bytes — in two visited.Store instances (the blue "done" set and
// the red "confirmed cycle-free" set), plus a cyan map for the states on
// the outer DFS stack. Successors are enumerated and fired as ts.Rule
// records and recycled like the safety kernel's: rejected product
// successors and popped stack states return to the system's pool.
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
// which the zoo-wide differential harness pins.
package mc

import (
	"context"
	"errors"
	"fmt"

	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// lsucc is one product successor awaiting processing: a fired system state
// (owned exclusively by this entry) with its monitor state, fairness copy,
// product fingerprint and acceptance.
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
	state ts.State
	rule  string // transition that led into this frame's state
	fp    statespace.Fingerprint
	q, c  uint8
	acc   bool
	succs []lsucc
	next  int
}

// liveChecker runs the per-goal nested DFS. One instance serves all goals
// of a run; the per-goal color stores are rebuilt in checkGoal (acceptance
// differs per goal, so product fingerprints are not comparable across
// goals).
type liveChecker struct {
	sys ts.System
	opt Options
	ctx context.Context
	env *ts.Env
	res *Result
	// rs is the system as records (see ts.Rules), rules the enumeration
	// buffer, recycler the system's pool (nil: none, or Options.NoRecycle).
	// names says whether anything will read a successor's transition name:
	// a recorded lasso, or a fairness requirement's Taken.
	rs       ts.RuleSystem
	rules    []ts.Rule
	recycler ts.Recycler
	names    bool
	// pollN counts expansions toward the next cooperative cancellation
	// check; cur is the product frame's system state currently being
	// expanded, for panic containment's state-key report.
	pollN int
	cur   ts.State

	goal ts.LivenessGoal
	fair []ts.Fairness // active requirements (nil when goal is not Fair)

	blue  visited.Store
	red   visited.Store
	cyan  map[statespace.Fingerprint]int // product fp → blue stack index
	stack []lframe                       // blue (outer) stack
	rst   []lframe                       // red (inner) stack

	buf      []byte // product-key scratch (appender path)
	admitted int    // blue insertions, for the MaxStates cap
	capHit   bool
	// ow stages the phase's telemetry (nil when Options.Obs is unset):
	// CBlue/CRed product admissions, plus CAborts, which mirrors
	// Stats.WildcardAborts and so keeps accumulating here. The phase's
	// firings and recycles are deliberately NOT counted into
	// CTransitions/CRecycled — those mirror the safety pass's
	// statespace.Stats, and this phase reports its exploration separately
	// (LiveStates/RedStates).
	ow *obs.Worker
}

// checkLiveness runs the nested-DFS phase over every liveness goal of e's
// system, in the context and environment of e's current check, updating
// res in place: the first violated goal flips the verdict to Failure with
// a FailLiveness lasso. Called only after a safety pass that did not fail;
// a no-op when the system reports no goals.
func checkLiveness(e *explorer, res *Result) error {
	lr, ok := e.sys.(ts.LivenessReporter)
	if !ok {
		return nil
	}
	goals := lr.LivenessGoals()
	if len(goals) == 0 {
		return nil
	}
	ctx := e.ctx
	l := &liveChecker{
		sys: e.sys, opt: e.opt, ctx: ctx, env: e.env, res: res,
		rs:       ts.Rules(e.sys, e.opt.FreshTransitions),
		recycler: e.recycler,
		ow:       e.opt.Obs.NewWorker(),
	}
	if ctx.Err() != nil {
		// The deadline expired between the safety pass and this phase.
		l.abort(cancelAbort(ctx))
		return nil
	}
	for _, g := range goals {
		failed, err := l.checkGoalSafe(g)
		if err != nil {
			return err
		}
		if failed || res.Verdict == Aborted {
			return nil
		}
	}
	if l.capHit {
		res.CapHit = true
	}
	// No cycle found, but branches were dropped (wildcard holes) or the
	// product-state cap cut the search short: the pass is inconclusive,
	// exactly like the safety phase's downgrades.
	if (res.CapHit || res.WildcardHit) && res.Verdict == Success {
		res.Verdict = Unknown
	}
	return nil
}

// abort marks the liveness phase cut short. It only runs on a non-failing
// result (checkLiveness's precondition), so there is no failure to outrank.
func (l *liveChecker) abort(info *AbortInfo) {
	l.res.Abort = info
	l.res.Verdict = Aborted
}

// pollCancel is the nested-DFS cancellation probe, sharing the safety
// kernel's stride; it reports whether the search should stop, having
// recorded the abort.
func (l *liveChecker) pollCancel() bool {
	if l.res.Verdict == Aborted {
		return true
	}
	if l.pollN++; l.pollN < cancelPollStride {
		return false
	}
	l.pollN = 0
	if l.ctx.Err() != nil {
		l.abort(cancelAbort(l.ctx))
		return true
	}
	return false
}

// checkGoalSafe runs one goal's search with panic containment: a panic out
// of the model (or a goal predicate) aborts the run with the offending
// state's key instead of crashing; checkGoal's deferred cleanup — color
// stores, space accounting — still runs during the unwind.
func (l *liveChecker) checkGoalSafe(g ts.LivenessGoal) (failed bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			l.abort(panicAbort(p, l.cur))
			failed, err = false, nil
		}
	}()
	return l.checkGoal(g)
}

// checkGoal runs one goal's accepting-cycle search. It reports whether the
// goal failed (res already updated with the lasso).
func (l *liveChecker) checkGoal(g ts.LivenessGoal) (failed bool, err error) {
	l.goal = g
	l.fair = nil
	if g.Fair {
		if fr, ok := l.sys.(ts.FairnessReporter); ok {
			l.fair = fr.WeakFairness()
		}
	}
	l.names = l.opt.RecordTrace || len(l.fair) > 0
	l.blue = visited.New(visitedConfig(l.opt))
	l.red = visited.New(visitedConfig(l.opt))
	defer func() {
		if cerr := closeStore(l.blue); err == nil {
			err = cerr
		}
		if cerr := closeStore(l.red); err == nil {
			err = cerr
		}
		l.res.Space.LiveStates += l.blue.Len()
		l.res.Space.RedStates += l.red.Len()
		l.blue, l.red = nil, nil
		l.ow.Flush()
	}()
	l.cyan = make(map[statespace.Fingerprint]int)
	l.stack = l.stack[:0]
	l.rst = l.rst[:0]

	for _, s0 := range l.sys.Initial() {
		// The negated monitor may start in several states (the LeadsTo
		// automaton can guess the violation begins immediately); each gets
		// its own product root, and extras Clone the system state so every
		// entry owns its storage and can be recycled on its own.
		first := true
		for _, q0 := range l.monitorInit(s0) {
			s := s0
			if !first {
				s = s0.Clone()
			}
			first = false
			root := l.product(s, "", q0, l.initCopy(q0, s))
			if lasso, found, err := l.dfsBlue(root); err != nil {
				return false, err
			} else if found {
				l.failLasso(lasso)
				return true, nil
			}
			if l.res.Verdict == Aborted {
				return false, nil
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

// initCopy is the fairness copy of an initial product state: always 0 (the
// counter only starts moving after an accepting state is passed).
func (l *liveChecker) initCopy(uint8, ts.State) uint8 { return 0 }

// nextCopy advances the fairness copy counter across the step src →(rule)→
// target. From copy 0 the counter starts a round iff src is accepting; from
// copy i ∈ 1..n it advances (wrapping n → 0) iff requirement i is
// discharged at this step: not enabled at src, or the fired rule is one of
// its transitions.
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

// fingerprint hashes the product state (s, q, c): the system state's
// canonical encoding extended with the monitor and copy bytes. The hot
// path appends the ts.KeyAppender binary encoding plus two bytes into the
// reusable scratch buffer and hashes in place; appender-less states fall
// back to an incremental hash of the Key() string. No symmetry
// canonicalization — see the package comment.
func (l *liveChecker) fingerprint(s ts.State, q, c uint8) statespace.Fingerprint {
	if a, ok := s.(ts.KeyAppender); ok {
		l.buf = a.AppendKey(l.buf[:0])
		l.buf = append(l.buf, q, c)
		return statespace.OfBytes(l.buf)
	}
	h := statespace.NewHasher()
	h.AddString(s.Key())
	h.AddByte(q)
	h.AddByte(c)
	return h.Sum()
}

// product assembles a stack frame for the product state (s, q, c).
func (l *liveChecker) product(s ts.State, rule string, q, c uint8) lframe {
	return lframe{
		state: s,
		rule:  rule,
		fp:    l.fingerprint(s, q, c),
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
	l.cur = f.state // panic containment reports this state's key
	l.ow.Tick()
	l.rules = l.rs.AppendRules(l.rules[:0], f.state)
	var succs []lsucc
	var qs [2]uint8
	for _, r := range l.rules {
		next, ferr := l.rs.FireRule(f.state, r, l.env)
		if ferr != nil {
			if errors.Is(ferr, ts.ErrWildcard) {
				l.res.WildcardHit = true
				l.res.Stats.WildcardAborts++
				l.ow.Inc(obs.CAborts)
				continue
			}
			return nil, fmt.Errorf("mc: liveness goal %q: transition %q from state %q: %w",
				l.goal.Name, l.rs.RuleName(r), f.state.Key(), ferr)
		}
		name := ""
		if l.names {
			name = l.rs.RuleName(r)
		}
		c := l.nextCopy(f, name)
		qlist := l.monitorStep(qs[:0], f.q, next)
		if len(qlist) == 0 {
			l.recycle(next)
			continue
		}
		for i, q := range qlist {
			s := next
			if i > 0 {
				s = next.Clone()
			}
			succs = append(succs, lsucc{
				state: s,
				rule:  name,
				fp:    l.fingerprint(s, q, c),
				q:     q,
				c:     c,
				acc:   l.accepting(s, q, c),
			})
		}
	}
	return succs, nil
}

// recycle hands a dead state back to the system's pool (a no-op when the
// system does not pool or Options.NoRecycle is set).
func (l *liveChecker) recycle(s ts.State) {
	if l.recycler != nil {
		l.recycler.Recycle(s)
	}
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

// dfsBlue is the outer search: an iterative post-order DFS that seeds the
// nested red search at accepting states on pop, with the Schwoon–Esparza
// early check on every edge into the cyan (on-stack) set — if either
// endpoint is accepting, the stack already closes an accepting cycle and
// no nested search is needed.
func (l *liveChecker) dfsBlue(root lframe) (lasso, bool, error) {
	if !l.blue.TryInsert(root.fp) {
		return lasso{}, false, nil // reached by an earlier root
	}
	l.admitted++
	l.ow.Inc(obs.CBlue)
	l.cyan[root.fp] = 0
	l.stack = append(l.stack[:0], root)
	for len(l.stack) > 0 {
		if l.opt.MaxStates > 0 && l.admitted > l.opt.MaxStates {
			l.capHit = true
			return lasso{}, false, nil
		}
		if l.pollCancel() {
			return lasso{}, false, nil
		}
		f := &l.stack[len(l.stack)-1]
		if f.succs == nil && f.next == 0 {
			succs, err := l.expand(f)
			if err != nil {
				return lasso{}, false, err
			}
			f.succs = succs
			if succs == nil {
				f.succs = []lsucc{} // distinguish "expanded, none" from "unexpanded"
			}
		}
		if f.next < len(f.succs) {
			t := f.succs[f.next]
			f.next++
			if at, onStack := l.cyan[t.fp]; onStack {
				if f.acc || t.acc {
					return lasso{cycleStart: at, closing: t}, true, nil
				}
				l.recycle(t.state)
				continue
			}
			if !l.blue.TryInsert(t.fp) {
				l.recycle(t.state) // already fully explored
				continue
			}
			l.admitted++
			l.ow.Inc(obs.CBlue)
			l.cyan[t.fp] = len(l.stack)
			l.stack = append(l.stack, lframe{
				state: t.state, rule: t.rule, fp: t.fp, q: t.q, c: t.c, acc: t.acc,
			})
			continue
		}
		// Post-order: seed the nested search at accepting states while the
		// frame is still cyan, so a cycle back into the stack is caught.
		if f.acc {
			cyc, found, err := l.dfsRed(f)
			if err != nil {
				return lasso{}, false, err
			}
			if found {
				return cyc, true, nil
			}
		}
		delete(l.cyan, f.fp)
		popped := l.stack[len(l.stack)-1]
		l.stack = l.stack[:len(l.stack)-1]
		// Nothing references a popped state: counterexamples are built
		// from live stacks only, so its storage returns to the pool.
		l.recycle(popped.state)
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
	if l.red.TryInsert(seed.fp) {
		l.ow.Inc(obs.CRed)
	}
	// The seed frame shares its state with the blue stack; the red stack's
	// copy must never be recycled on pop.
	l.rst = append(l.rst[:0], lframe{state: seed.state, fp: seed.fp, q: seed.q, c: seed.c, acc: seed.acc})
	for len(l.rst) > 0 {
		if l.pollCancel() {
			return lasso{}, false, nil
		}
		f := &l.rst[len(l.rst)-1]
		if f.succs == nil && f.next == 0 {
			succs, err := l.expand(f)
			if err != nil {
				return lasso{}, false, err
			}
			f.succs = succs
			if succs == nil {
				f.succs = []lsucc{}
			}
		}
		if f.next < len(f.succs) {
			t := f.succs[f.next]
			f.next++
			if at, onStack := l.cyan[t.fp]; onStack {
				rest := make([]lframe, len(l.rst)-1)
				copy(rest, l.rst[1:])
				return lasso{cycleStart: at, rest: rest, closing: t}, true, nil
			}
			if !l.red.TryInsert(t.fp) {
				l.recycle(t.state)
				continue
			}
			l.ow.Inc(obs.CRed)
			l.rst = append(l.rst, lframe{
				state: t.state, rule: t.rule, fp: t.fp, q: t.q, c: t.c, acc: t.acc,
			})
			continue
		}
		popped := l.rst[len(l.rst)-1]
		l.rst = l.rst[:len(l.rst)-1]
		if len(l.rst) > 0 { // rst[0] is the seed: owned by the blue stack
			l.recycle(popped.state)
		}
	}
	return lasso{}, false, nil
}

// failLasso records the accepting cycle as a FailLiveness verdict. With
// RecordTrace on, the counterexample is assembled from the live stacks:
// blue stack (stem + cycle prefix), red path (cycle suffix), and the
// closing step, whose state revisits Trace[CycleStart].State.
func (l *liveChecker) failLasso(cyc lasso) {
	l.res.Verdict = Failure
	fi := &FailureInfo{
		Kind:       FailLiveness,
		Name:       l.goal.Name,
		UsageMask:  ^uint64(0),
		CycleStart: cyc.cycleStart,
	}
	if l.opt.RecordTrace {
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
	l.res.Space.CycleLen = len(l.stack) + len(cyc.rest) + 1 - (cyc.cycleStart + 1)
	l.res.Failure = fi
}
