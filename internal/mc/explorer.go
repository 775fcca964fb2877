package mc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// item is one frontier entry: the state itself with the hole-usage mask
// accumulated along its path. This is the trace-optional representation —
// with RecordTrace off the item is everything the checker holds for a
// state; with it on, node additionally points into the parent-linked trace
// store, whose parent chains keep every ancestor alive (the inherent memory
// cost of counterexamples). Depth is not stored per entry: every entry of a
// BFS level shares it, and DFS keeps a side stack (see explorer.depth).
type item struct {
	state ts.State
	node  *statespace.TraceNode[ts.State] // nil unless RecordTrace
	mask  uint64
}

// worker is one exploration worker's private scratch and tallies. Nothing
// in it is shared: the keyer and rule buffer keep the keying and
// enumeration hot paths allocation- and lock-free, the environment copy
// tallies the worker's own pool traffic, the frontier blocks come from its
// own free list, and the counters are plain integers that explorer.sum folds into the Result while no worker is
// running (level boundaries and the end of the run). The struct is padded
// so neighbouring workers' per-transition counter writes never false-share.
// A session keeps its workers, buffers and frontier blocks included, from
// one check to the next, and the liveness phase runs on worker 0 once the
// safety pass is over.
//
// The states themselves need no free list here: the models pool through
// sync.Pool, whose per-P private caches already give each worker goroutine
// a lock-free local free list.
type worker struct {
	key keyer
	// rules is the buffer this worker enumerates into, truncated per
	// expansion.
	rules []ts.Rule
	// ow stages this worker's telemetry counters (nil when Options.Obs is
	// unset; every method no-ops on nil).
	ow *obs.Worker
	// env is this worker's copy of the check's environment (ts.Env.Fork):
	// every firing runs in it, and the pool tallies its hits and misses on
	// it.
	env ts.Env
	// out, tip and n are the fresh successors this worker admitted — its
	// share of the next BFS level, or the whole DFS stack — as full blocks
	// in out, the block being filled in tip, n entries in all (frontier.go).
	out blocks
	tip []item
	n   int
	// free holds the empty blocks this worker expanded last or allocated;
	// allocated counts the entries of the blocks it allocated.
	free      blocks
	allocated int
	// cur is the state being expanded, so a contained panic can report it.
	cur ts.State
	// poll counts expansions toward the next cooperative cancellation check.
	poll int

	// Tallies since the last sum. admitted feeds the MaxStates probe,
	// goalHit is this worker's view of the witnessed reachability goals.
	fired, aborts, admitted, maxDepth int
	recycled                          uint64
	goalHit                           []bool
	_                                 [64]byte
}

// explorer is the safety exploration kernel: one expand / checkState / fail
// / admit path shared by every configuration. What varies is only how many
// workers walk the frontier (len(workers), from Options.Workers) and in
// which order (Options.Order): breadth-first runs level by level, each
// level spread over the workers a block at a time — a single worker expands
// it inline on the caller's goroutine, in item order, touching no atomics —
// and depth-first runs worker 0's output as a stack.
//
// Successors dedupe through the visited set, whose TryInsert doubles as the
// expansion-ownership claim: every backend admits at most one of any set of
// racing inserts of a fingerprint, so every admitted state is checked and
// expanded exactly once and the counts are exact at any width.
//
// The nested-DFS liveness phase (liveness.go) is not a second kernel: it
// draws successors (fire), keys, recycling, cancellation polls and panic
// containment from this one, on worker 0, and folds its tallies through sum.
//
// An explorer belongs to a Session and serves its checks one after another.
// The first block of fields is resolved once per session; the second is a
// check's own and is reset by begin — buffers are truncated, frontier
// blocks wait in the workers' free lists and the flat visited table is
// cleared in place, not rebuilt.
type explorer struct {
	sys      ts.System
	opt      Options
	invs     []ts.Invariant
	goals    []ts.ReachGoal
	quies    ts.QuiescentReporter
	recycler ts.Recycler                      // nil when the system does not pool, or Options.NoRecycle
	all      []worker                         // Options.Workers of them; a check runs the first n
	noTraces *statespace.TraceStore[ts.State] // the disabled store of every traceless check

	ctx   context.Context
	usage UsageTracker
	ckpt  *checkpointer

	visited visited.Store
	traces  *statespace.TraceStore[ts.State]
	workers []worker
	// level is the BFS level being expanded, levelLen its entries, and
	// depth the search depth of the entries being expanded — the level's,
	// or under DFS the popped entry's. A worker that has expanded a level
	// block nils its slot in level.list and frees it; the rest is read-only
	// while workers run.
	level    blocks
	levelLen int
	depth    int

	// Run totals, folded from the workers' tallies by sum. admitted mirrors
	// visited.Len() so the MaxStates probe never touches the store (Len can
	// be a sweep for some backends); peak is the PeakFrontier high-water
	// mark (see statespace.Stats).
	admitted int
	recycled uint64
	peak     int
	goalHit  []bool

	// mu guards the first-wins stop records in res — Failure, Abort, CapHit
	// — which racing workers may report in the same level. They are rare
	// events, never on the expansion path.
	mu  sync.Mutex
	res *Result
}

// init resolves what every check of a session shares.
func (e *explorer) init(sys ts.System, opt Options) {
	n := 1
	if opt.Order == BFS && opt.Workers > 1 {
		n = opt.Workers
	}
	*e = explorer{
		sys:      sys,
		opt:      opt,
		invs:     sys.Invariants(),
		all:      make([]worker, n),
		noTraces: statespace.NewTraceStore[ts.State](false),
	}
	if !opt.NoRecycle {
		e.recycler, _ = sys.(ts.Recycler)
	}
	if gr, ok := sys.(ts.GoalReporter); ok {
		e.goals = gr.Goals()
	}
	e.quies, _ = sys.(ts.QuiescentReporter)
	var canon *symmetry.Canonicalizer
	if opt.Symmetry {
		canon = symmetry.For(sys)
	}
	// One backing array for the goal flags: the run's merged view first,
	// then each worker's own.
	g := len(e.goals)
	hits := make([]bool, (n+1)*g)
	e.goalHit, hits = hits[:g:g], hits[g:]
	for i := range e.all {
		w := &e.all[i]
		w.key = keyer{canon: canon}
		w.ow = opt.Obs.NewWorker()
		w.goalHit, hits = hits[:g:g], hits[g:]
	}
}

// begin resets the explorer for one check: a fresh Result, emptied buffers
// and tallies, and an empty visited set — the one of the previous check
// when its backend can be emptied in place (visited.Resetter), a new one
// otherwise.
func (e *explorer) begin(ctx context.Context, env *ts.Env, usage UsageTracker) error {
	n := len(e.all)
	// Usage tracking brackets each firing with ResetUsage/Usage on one
	// tracker, so it needs a single worker (as does DFS: see init).
	if usage != nil {
		n = 1
	}
	e.ctx, e.usage = ctx, usage
	e.res = new(Result)
	e.workers = e.all[:n]
	e.depth = 0
	e.admitted, e.recycled, e.peak = 0, 0, 0
	clear(e.goalHit)
	for i := range e.workers {
		// The other tallies were zeroed by the last sum of the previous
		// check, and its release emptied the frontier.
		w := &e.workers[i]
		w.env = env.Fork()
		w.cur, w.poll, w.maxDepth = nil, 0, 0
		clear(w.goalHit)
	}
	e.traces = e.noTraces
	if e.opt.RecordTrace {
		e.traces = statespace.NewTraceStore[ts.State](true)
	}
	// Only a single-goroutine store left by a one-worker check is worth
	// keeping, and only for another one-worker check.
	if r, ok := e.visited.(visited.Resetter); ok && n == 1 {
		r.Reset()
	} else if n == 1 {
		e.visited = visited.New(visitedConfig(e.opt))
	} else {
		e.visited = visited.NewConcurrent(visitedConfig(e.opt))
	}
	var err error
	if e.ckpt, err = newCheckpointer(e.sys, e.opt, usage); err != nil {
		_ = closeStore(e.visited) // nothing was inserted; the checkpointer's error is the one to report
	}
	return err
}

// explore runs the safety pass of a check.
func (e *explorer) explore(ctx context.Context, env *ts.Env, usage UsageTracker) (*Result, error) {
	if err := e.begin(ctx, env, usage); err != nil {
		return nil, err
	}
	e.opt.Obs.SetGauge(obs.GMaxStates, uint64(e.opt.MaxStates))
	err := e.run()
	e.finish()
	if cerr := closeStore(e.visited); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// run seeds the frontier and walks it in the selected order. Every way a
// run can end early — violation, cancellation, contained panic, state cap
// — is recorded in res by the time run returns; finish settles the verdict.
func (e *explorer) run() error {
	w := &e.workers[0]
	resumed, err := e.resume(w)
	if err != nil {
		return err
	}
	if !resumed {
		if stop, err := e.seed(w); stop || err != nil {
			return err
		}
	}
	if e.opt.Order == DFS {
		_, err = e.dfs(w)
		return err
	}
	return e.bfs()
}

// seed admits and checks the initial states into w's output.
func (e *explorer) seed(w *worker) (stop bool, err error) {
	defer e.contain(w, &stop)
	inits := e.sys.Initial()
	if len(inits) == 0 {
		return true, fmt.Errorf("mc: system %q has no initial states", e.sys.Name())
	}
	for _, s := range inits {
		w.cur = s
		if !e.admit(w, s, nil) {
			continue
		}
		it := item{state: s, node: e.traces.Add(s, "", nil)}
		if e.checkState(w, it) {
			return true, nil
		}
		e.push(w, it)
	}
	return false, nil
}

// bfs is the level-synchronous walk. Between levels no worker is running,
// so that is where tallies are summed, level-aware backends reorganize
// (spill merges its run files), telemetry is published and the
// checkpointer snapshots.
func (e *explorer) bfs() error {
	e.gather()
	for e.levelLen > 0 {
		if stop, err := e.expandLevel(); stop || err != nil {
			return err // finish accounts for what the workers hold
		}
		e.gather()
		if e.levelLen == 0 {
			return nil
		}
		e.depth++
		if err := e.endLevel(e.levelLen); err != nil {
			return err
		}
		if err := e.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// gather sums the workers' tallies and makes their outputs the next level:
// worker 0's blocks first, then worker 1's and so on, moved by header —
// no entry is copied. Every block of the finished level went back to a
// free list as it was expanded, but the level still counts toward the
// frontier high-water mark: its entries were held while the next level
// filled, so the mark is the two levels' coexistence, not either alone —
// one definition at every width. With several workers the order within a
// level depends on scheduling; the level structure keeps BFS depth
// semantics regardless.
func (e *explorer) gather() {
	e.sum()
	done := e.levelLen
	e.level.list, e.levelLen = e.level.list[:0], 0
	for i := range e.workers {
		w := &e.workers[i]
		w.flush()
		for _, b := range w.out.list {
			e.level.add(b)
		}
		clear(w.out.list)
		w.out.list, e.levelLen, w.n = w.out.list[:0], e.levelLen+w.n, 0
	}
	e.peak = max(e.peak, done+e.levelLen)
}

// expandLevel spreads the level's blocks over the workers, one block per
// claim; a single worker (or a single-block level) runs inline on the
// calling goroutine.
func (e *explorer) expandLevel() (stop bool, err error) {
	n := len(e.level.list)
	if k := min(len(e.workers), n); k > 1 {
		return statespace.ExpandLevel(k, n, e.span)
	}
	return e.span(0, 0, n)
}

// span expands the level's blocks [lo, hi) in order on worker wi, handing
// each to wi's free list once its last entry is expanded. Each range starts
// with an unconditional cancellation poll: an already-expired context
// aborts before any expansion, a deadline cannot slip past a whole level
// however small the levels are, and a wide level split over several
// workers cannot leave every one of them short of expand's stride.
func (e *explorer) span(wi, lo, hi int) (stop bool, err error) {
	w := &e.workers[wi]
	defer e.contain(w, &stop)
	if e.cancelled() {
		return true, nil
	}
	for bi := lo; bi < hi; bi++ {
		b := e.level.list[bi]
		for i := range b {
			if stop, err := e.expand(w, b[i]); stop || err != nil {
				return true, err
			}
			b[i] = item{} // spent: release skips it
		}
		e.level.list[bi] = nil
		w.free.add(b[:0])
	}
	return false, nil
}

// dfs runs w's output as a stack, with the entries' depths on a side stack.
// DFS has no levels: level-aware backends rely on their own housekeeping,
// cancellation — past the first poll — on expand's stride, and
// PeakFrontier is the stack's high-water mark. The entry being expanded is
// off the stack, so a run that stops during its expansion recycles it here,
// as release does for the stack.
func (e *explorer) dfs(w *worker) (stop bool, err error) {
	var it item
	defer func() {
		if stop && it.state != nil && !e.opt.RecordTrace {
			e.recycle(w, it.state)
		}
	}()
	defer e.contain(w, &stop)
	if e.cancelled() {
		return true, nil
	}
	e.peak = w.n
	depths := make([]int, w.n)
	for w.n > 0 {
		it = w.pop()
		e.depth = depths[w.n]
		depths = depths[:w.n]
		stop, err := e.expand(w, it)
		for len(depths) < w.n {
			depths = append(depths, e.depth+1)
		}
		e.peak = max(e.peak, w.n)
		if stop || err != nil {
			return true, err
		}
	}
	return false, nil
}

// contain is deferred by every function that calls into model code
// (AppendRules, FireRule, an invariant, Key, a liveness goal): a panic out of
// the model is converted into an abort carrying the offending state's key
// and the panicking stack instead of crashing the process, and *stop is
// raised so the other workers drain. It must be the deferred function
// itself for recover to see the panic, and a worker goroutine's panic
// cannot cross into its parent — hence per function, not once per run.
func (e *explorer) contain(w *worker, stop *bool) {
	if p := recover(); p != nil {
		e.abort(panicAbort(p, w.cur))
		*stop = true
	}
}

// abort records why the run was cut short; the first cause wins (racing
// workers observing the same cancel, a second panicking worker).
func (e *explorer) abort(info *AbortInfo) {
	e.mu.Lock()
	if e.res.Abort == nil {
		e.res.Abort = info
	}
	e.mu.Unlock()
}

// cancelled polls the context, recording the abort when it is done.
func (e *explorer) cancelled() bool {
	if e.ctx.Err() == nil {
		return false
	}
	e.abort(cancelAbort(e.ctx))
	return true
}

// fail records the first property violation; later ones (racing workers in
// the same level) are dropped, so the reported trace is always a single
// consistent parent chain. n is the failing state's trace node (nil with
// traces off).
func (e *explorer) fail(kind FailKind, name string, n *statespace.TraceNode[ts.State], mask uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.res.Failure != nil {
		return
	}
	fi := &FailureInfo{Kind: kind, Name: name, UsageMask: mask}
	if n != nil {
		fi.Trace = tracePath(n)
	}
	e.res.Failure = fi
}

// admit claims expansion ownership of s through w's keyer scratch and
// reports whether s is fresh. Rejected duplicates are recycled on the spot:
// a duplicate was never traced and never emitted, so only the calling
// worker can still reach it — the unconditionally safe recycle point, valid
// with traces on or off.
func (e *explorer) admit(w *worker, s ts.State, sw *obs.Stopwatch) bool {
	sw.Mark()
	fp := w.key.fingerprint(s)
	sw.Lap(obs.PhaseKey)
	fresh := e.visited.TryInsert(fp)
	sw.Lap(obs.PhaseInsert)
	if !fresh {
		w.ow.Inc(obs.CDuplicates)
		e.recycle(w, s)
		return false
	}
	w.ow.Inc(obs.CStates)
	w.admitted++
	return true
}

// recycle hands a dead state back to the system's pool. The caller must own
// s outright: nothing — trace node, frontier entry, failure info — may
// still dereference it (see the ts package's ownership rules).
func (e *explorer) recycle(w *worker, s ts.State) {
	if e.recycler != nil {
		e.recycler.Recycle(s)
		w.recycled++
		w.ow.Inc(obs.CRecycled)
	}
}

// checkState runs invariants and goal predicates on a freshly admitted
// state; it reports whether exploration should stop (violation recorded).
func (e *explorer) checkState(w *worker, it item) bool {
	for _, inv := range e.invs {
		if !inv.Holds(it.state) {
			e.fail(FailInvariant, inv.Name, it.node, it.mask)
			return true
		}
	}
	for gi := range e.goals {
		if !w.goalHit[gi] && e.goals[gi].Holds(it.state) {
			w.goalHit[gi] = true
		}
	}
	return false
}

// expand fires all transitions of frontier entry it on worker w, pushing
// fresh successors onto w's output. stop reports that the run should end:
// violation, cancellation or state cap (each recorded in res), or err.
func (e *explorer) expand(w *worker, it item) (stop bool, err error) {
	if e.poll(w) {
		return true, nil
	}
	// The probe adds this worker's own admissions to the total as of the
	// last level boundary: exact with one worker; several workers may each
	// notice the cap up to one level late.
	if e.opt.MaxStates > 0 && e.admitted+w.admitted > e.opt.MaxStates {
		e.mu.Lock()
		e.res.CapHit = true
		e.mu.Unlock()
		return true, nil
	}
	w.cur = it.state
	sw := w.ow.BeginExpansion() // nil on unsampled expansions; Stopwatch is nil-safe
	defer sw.Done()
	sw.Mark()
	w.rules = e.sys.AppendRules(w.rules[:0], it.state)
	sw.Lap(obs.PhaseEnumerate)
	usage := e.usage
	succs, blocked := 0, 0
	for _, r := range w.rules {
		if usage != nil {
			usage.ResetUsage()
		}
		sw.Mark()
		next, ferr := e.fire(w, it.state, r)
		sw.Lap(obs.PhaseFire)
		if ferr != nil {
			return true, fmt.Errorf("mc: %w", ferr)
		}
		if next == nil {
			blocked++
			continue
		}
		w.fired++
		w.ow.Inc(obs.CTransitions)
		succs++
		mask := it.mask
		if usage != nil {
			mask |= usage.Usage()
		}
		if !e.admit(w, next, sw) {
			continue
		}
		child := item{state: next, mask: mask}
		if e.opt.RecordTrace {
			child.node = e.traces.Add(next, e.sys.RuleName(r), it.node)
		}
		w.maxDepth = max(w.maxDepth, e.depth+1)
		if e.checkState(w, child) {
			// The violating state never reaches the frontier; a traceless
			// failure does not reference it, so it is dead already.
			if !e.opt.RecordTrace {
				e.recycle(w, next)
			}
			return true, nil
		}
		e.push(w, child)
	}
	if succs == 0 && blocked == 0 {
		// With blocked > 0 all outgoing behaviour hides behind wildcards:
		// not provably a deadlock; the Unknown verdict (WildcardHit) covers
		// it, and the expansion completes normally below.
		if e.quies == nil || !e.quies.Quiescent(it.state) {
			e.fail(FailDeadlock, "deadlock", it.node, it.mask)
			return true, nil
		}
	}
	// Normal completion. In traceless mode the expanded state is dead: no
	// trace node references it, its frontier entry is never read again (span
	// zeroes it), and its rule
	// records are never fired again — so its storage returns to the pool from
	// the worker that owned its expansion. With traces on it is retained by
	// its trace node and must escape the pool forever.
	if !e.opt.RecordTrace {
		e.recycle(w, it.state)
	}
	return false, nil
}

// fire fires rule r from s on worker w. A branch aborted at a wildcard hole
// is counted on w and returns a nil state and no error; any other model
// error comes back naming the transition and its source state.
func (e *explorer) fire(w *worker, s ts.State, r ts.Rule) (next ts.State, err error) {
	next, err = e.sys.FireRule(s, r, &w.env)
	if err == nil {
		return next, nil
	}
	if errors.Is(err, ts.ErrWildcard) {
		w.aborts++
		w.ow.Inc(obs.CAborts)
		return nil, nil
	}
	return nil, fmt.Errorf("transition %q from state %q: %w", e.sys.RuleName(r), s.Key(), err)
}

// poll is the cooperative cancellation probe of every search loop: once
// per cancelPollStride calls on w it polls the context, recording the abort
// when it is done.
func (e *explorer) poll(w *worker) bool {
	if w.poll++; w.poll < cancelPollStride {
		return false
	}
	w.poll = 0
	return e.cancelled()
}

// sum folds every worker's tallies into the run totals and refreshes each
// worker's view of the witnessed goals. Called only while no worker runs.
func (e *explorer) sum() {
	st := &e.res.Stats
	for i := range e.workers {
		w := &e.workers[i]
		st.FiredTransitions += w.fired
		st.WildcardAborts += w.aborts
		st.MaxDepth = max(st.MaxDepth, w.maxDepth)
		e.admitted += w.admitted
		e.recycled += w.recycled
		w.fired, w.aborts, w.admitted, w.recycled = 0, 0, 0, 0
		for gi, hit := range w.goalHit {
			e.goalHit[gi] = e.goalHit[gi] || hit
		}
	}
	for i := range e.workers {
		copy(e.workers[i].goalHit, e.goalHit)
	}
	e.res.WildcardHit = st.WildcardAborts > 0
}

// release closes the frontier's books when a run ends, however it ended,
// and hands every block back to a free list. A run that stopped mid-level
// never gathered it: the level and the successors the workers admitted
// count toward the frontier high-water mark exactly as a gathered level
// would. And in traceless mode every state those entries hold is owned by
// the kernel alone — a violation keeps its trace, when it has one, in trace
// nodes — so they go back to the pool instead of leaking: a synthesis run
// is mostly checks that end at their first violation, and the next check's
// first clones are these.
func (e *explorer) release() {
	held := e.levelLen
	for i := range e.workers {
		held += e.workers[i].n
	}
	e.peak = max(e.peak, held)
	w0 := &e.workers[0]
	for _, b := range e.level.list {
		if b != nil {
			e.drop(w0, b)
		}
	}
	clear(e.level.list)
	e.level.list, e.levelLen = e.level.list[:0], 0
	for i := range e.workers {
		w := &e.workers[i]
		w.flush()
		for _, b := range w.out.list {
			e.drop(w, b)
		}
		clear(w.out.list)
		w.out.list, w.n = w.out.list[:0], 0
	}
}

// finish assembles the Result. Every worker has joined, so summing their
// tallies and flushing their staged telemetry from this goroutine is safe
// even when the run stopped mid-level; the partial counts stay visible
// whatever the verdict.
func (e *explorer) finish() {
	e.release()
	e.sum()
	e.publish(0)
	res := e.res
	res.Stats.VisitedStates = e.visited.Len()
	res.Space.Transitions = res.Stats.FiredTransitions
	res.Space.PeakFrontier = e.peak
	res.Space.TraceNodes = e.traces.Nodes()
	res.Space.Recycled = e.recycled
	vs := e.visited.Stats()
	res.Space.States = vs.States
	res.Space.VisitedBytes = vs.Bytes
	res.Space.Backend = vs.Backend
	res.Space.SpilledBytes = vs.SpilledBytes
	res.Space.SpillRuns = vs.SpillRuns
	res.Space.SetRetained(unsafe.Sizeof(item{}), e.traces.NodeBytes())
	switch {
	case res.Failure != nil:
		// A violation found before the abort is the more informative
		// verdict and wins.
		res.Verdict, res.Abort = Failure, nil
	case res.Abort != nil:
		// Reachability goals are not judged on an aborted run, and an abort
		// outranks the wildcard/cap downgrades.
		res.Verdict = Aborted
	case res.WildcardHit || res.CapHit:
		res.Verdict = Unknown
	default:
		// Complete exploration: reachability goals are decidable now.
		res.Verdict = Success
		for gi, hit := range e.goalHit {
			if !hit {
				// A goal failure is a property of the entire explored
				// space; conservatively mark every hole as involved.
				res.Verdict = Failure
				res.Failure = &FailureInfo{Kind: FailGoal, Name: e.goals[gi].Name, UsageMask: ^uint64(0)}
				break
			}
		}
	}
}
