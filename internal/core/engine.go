package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/ts"
)

// Mode selects the synthesis strategy.
type Mode int

const (
	// ModePrune is the paper's contribution: wildcard defaults plus the
	// candidate-pruning lookup table.
	ModePrune Mode = iota
	// ModeNaive is the baseline enumeration: newly discovered holes take a
	// concrete default action (index 0) so the model checker always runs to
	// completion, and every combination of discovered hole actions is
	// dispatched.
	ModeNaive
)

// String returns the mode name.
func (m Mode) String() string {
	if m == ModeNaive {
		return "naive"
	}
	return "prune"
}

// PruneStyle selects how failing candidates become pruning patterns.
type PruneStyle int

const (
	// PruneFullVector inserts the entire enumerated candidate configuration
	// (bound prefix; trailing wildcards stripped), exactly as the paper
	// describes ("the current candidate (including known wildcards) is
	// entered into the lookup-table").
	PruneFullVector PruneStyle = iota
	// PruneTraceGeneralized binds only the holes actually consulted on the
	// minimal error trace (the paper's executed subset Ct), wildcarding the
	// rest. Strictly more pruning; an extension benchmarked in the ablation.
	PruneTraceGeneralized
)

// String returns the prune-style name.
func (p PruneStyle) String() string {
	if p == PruneTraceGeneralized {
		return "trace-generalized"
	}
	return "full-vector"
}

// Config configures Synthesize.
type Config struct {
	// Mode selects pruning (default) or the naive baseline.
	Mode Mode
	// PruneStyle selects the pattern-generalization policy (ModePrune only).
	PruneStyle PruneStyle
	// Workers is the number of parallel synthesis workers (default 1):
	// cross-candidate parallelism, one model-checker run per candidate.
	// ModeNaive is inherently sequential (its candidate vector grows during
	// enumeration) and requires Workers <= 1.
	Workers int
	// MCWorkers is the number of intra-check exploration workers handed to
	// the embedded model checker per dispatch (0 or 1 = sequential). The
	// engine's total parallelism budget is Workers×MCWorkers, and budget
	// flows in one direction only: once MCWorkers > 1 opts into
	// intra-check parallelism, dispatches that cannot use cross-candidate
	// parallelism (the initial hole-discovery run of ModePrune, rounds
	// with fewer candidates than Workers) are given the idle share of the
	// budget as extra intra-check workers (see SplitParallelism), but
	// MCWorkers never adds cross-candidate workers beyond Workers —
	// Workers=1 keeps its deterministic dispatch order, and MCWorkers<=1
	// keeps every dispatch on one exploration worker.
	// Cross-candidate parallelism is embarrassingly parallel and should
	// get the budget first; intra-check parallelism is the lever when
	// individual state spaces are large. With MCWorkers > 1, holes may be
	// discovered in a scheduling-dependent order inside a run, so hole
	// indices (and Solution.Assign vectors) are only stable up to
	// renaming; compare solutions by hole name. Note
	// PruneTraceGeneralized installs a usage tracker, which makes each
	// check run one worker.
	MCWorkers int
	// MC carries the base model-checker options (symmetry, state caps,
	// deadlock checking, search order, visited-set backend). Env, Usage,
	// RecordTrace and Workers are managed by the engine and must be left
	// zero (set Config.MCWorkers for intra-check parallelism; trace
	// recording is off during the search and on for the final per-solution
	// re-verification).
	//
	// MC.Liveness extends every dispatch with the nested-DFS liveness
	// phase: candidates whose completions admit an accepting lasso fail
	// on the new axis and are pruned like any other failure. A lasso
	// found under a partial assignment fired only concretely resolved
	// holes (wildcard branches are dropped, and dropping edges cannot
	// create cycles), so it persists under every extension — liveness
	// failures carry an all-ones UsageMask and are never
	// trace-generalized. Re-verification runs with the same option, so a
	// winner is re-confirmed on the liveness axis too.
	MC mc.Options
	// MaxEvaluations, when positive, stops synthesis after that many
	// model-checker dispatches (Stats.Truncated is set). Used to run scaled
	// versions of experiments whose full runs take hours.
	MaxEvaluations int64
	// Events, when non-nil, receives every structured progress event
	// (round starts, solutions, re-verification drops; see obs.Event).
	// Every event carries a rendered Text line for consumers that only
	// want to print progress. With Workers > 1 solution events arrive
	// concurrently; the callback must be safe.
	Events func(obs.Event)
	// Obs, when non-nil, aggregates live telemetry for the whole synthesis
	// run: every model-checker dispatch publishes its exploration counters
	// into this collector (the engine threads it through MC — leave
	// MC.Obs zero), the engine counts evaluated/skipped/solutions and
	// publishes round/hole/pattern gauges, and progress events land in the
	// collector's event log. One collector spans all dispatches, so
	// counters accumulate across candidates and gauges are last-writer-
	// wins under concurrent dispatches.
	Obs *obs.Collector
	// OnEvaluate, when non-nil, receives an Event after every model-checker
	// dispatch. With Workers > 1 events arrive concurrently (the callback
	// must be safe) and pattern/hole counts reflect a racy snapshot; with
	// one worker the stream is the exact evaluation order, which is how
	// TestFigure2RunTable pins the paper's Figure 2 run table.
	OnEvaluate func(Event)
}

// Event describes one candidate evaluation (see Config.OnEvaluate).
type Event struct {
	// Assign is the candidate configuration that was dispatched (indexed by
	// hole discovery order; holes discovered during this very run are not
	// included — compare Holes).
	Assign []int
	// Verdict is the model checker's three-valued result.
	Verdict mc.Verdict
	// Holes is the number of holes discovered so far (after this run).
	Holes int
	// Patterns is the pruning-pattern count after this run.
	Patterns int
	// VisitedStates is the number of states this run explored.
	VisitedStates int
}

// Solution is one correctly verified candidate.
type Solution struct {
	// Assign maps hole index (discovery order) to action index.
	Assign []int
	// VisitedStates is the number of states the verifying run explored. The
	// paper uses this to group behaviourally equivalent solutions.
	VisitedStates int
	// Reverified reports that the final re-check with trace recording on
	// (see Synthesize) confirmed the solution. Synthesis dispatches run
	// traceless for memory, deduplicating by 64-bit fingerprints; the
	// trace-on re-check makes a fingerprint collision during the search
	// unable to smuggle a wrong candidate into the results — candidates
	// whose re-check fails are dropped from Solutions, so the flag is true
	// on every returned solution and exists as the attestation of that
	// pass.
	Reverified bool
}

// Stats aggregates a synthesis run.
type Stats struct {
	// Holes is the number of holes discovered.
	Holes int
	// CandidateSpace is the nominal candidate count: the product of action
	// counts over discovered holes, including the wildcard action in
	// ModePrune (Table I "Candidates" column). Saturates at MaxUint64.
	CandidateSpace uint64
	// Evaluated counts candidates dispatched to the model checker
	// (Table I "Evaluated").
	Evaluated int64
	// Skipped counts concrete candidates ruled out by pruning patterns
	// without model checking.
	Skipped int64
	// Patterns is the number of pruning patterns inserted
	// (Table I "Pruning Patterns").
	Patterns int
	// Successes, Failures, Unknowns count per-verdict dispatches.
	Successes, Failures, Unknowns int64
	// TotalVisitedStates sums visited states over all dispatches.
	TotalVisitedStates int64
	// Rounds is the number of prefix-expansion rounds (ModePrune).
	Rounds int
	// Truncated reports that MaxEvaluations stopped the run early
	// (cancellation sets Aborted instead).
	Truncated bool
	// Panicked counts candidate dispatches stopped by a contained
	// model-code panic. Each is recorded as a failed candidate — but never
	// becomes a pruning pattern, since a panic is a defect of the model
	// code rather than a property violation — and the search continues.
	Panicked int64
	// Aborted reports that the synthesis run was cancelled (SynthesizeCtx's
	// context) before the search completed; AbortCause carries the rendered
	// cancel cause. The returned Result holds the partial tallies, and
	// every listed solution is still re-verified.
	Aborted    bool
	AbortCause string
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
	// Space aggregates the exploration memory profiles of all model-checker
	// dispatches: States/Transitions/TraceNodes sum over dispatches, while
	// PeakFrontier and BytesRetained report the largest single dispatch — a
	// per-dispatch peak, not a process high-water mark (with Workers > 1,
	// concurrent dispatches' footprints coexist; see statespace.Stats).
	// Synthesis runs traceless, so TraceNodes counts only the final
	// per-solution re-verification runs.
	Space statespace.Stats
}

// Result is the outcome of Synthesize.
type Result struct {
	// Solutions lists the correctly verified candidates, sorted by
	// assignment. Empty if the skeleton has no solution (or the model is
	// inherently faulty).
	Solutions []Solution
	// HoleNames and HoleActions describe the discovered holes in discovery
	// order.
	HoleNames   []string
	HoleActions [][]string
	Stats       Stats
}

// Describe renders solution i in the paper's ⟨hole@action⟩ notation.
func (r *Result) Describe(i int) string {
	holes := make([]*holeInfo, len(r.HoleNames))
	for j := range holes {
		holes[j] = &holeInfo{name: r.HoleNames[j], actions: r.HoleActions[j], index: j}
	}
	return formatAssign(r.Solutions[i].Assign, holes)
}

type engine struct {
	sys      ts.System
	cfg      Config // MCWorkers/Workers normalized to >= 1 by Synthesize
	ctx      context.Context
	reg      *registry
	patterns *patternTable
	// checkers[w] is cross-candidate worker w's dispatch state, made at its
	// first dispatch and touched by no other worker.
	checkers []*checker

	evaluated  atomic.Int64
	skipped    atomic.Int64
	successes  atomic.Int64
	failures   atomic.Int64
	unknowns   atomic.Int64
	totalSeen  atomic.Int64
	panicked   atomic.Int64
	stop       atomic.Bool // MaxEvaluations reached, or the run cancelled
	aborted    atomic.Bool
	abortCause atomic.Pointer[string]
	fatal      atomic.Pointer[errBox]
	solMu      sync.Mutex
	solutions  map[string]Solution
	spaceMu    sync.Mutex
	space      statespace.Stats // merged per-dispatch memory profiles
	traceGen   bool
	checkCount atomic.Int64 // dispatch admission counter for MaxEvaluations
	lastK      int          // prefix size of the previous round (-1 before any)
}

type errBox struct{ err error }

// checker is what one cross-candidate worker keeps from dispatch to
// dispatch: a model-checker session — kernel, buffers and visited table
// reused, see mc.Session — and the chooser that resolves its holes, with
// the environment wrapping it. A dispatch only points the chooser at its
// candidate.
type checker struct {
	sess      *mc.Session
	mcWorkers int // the session's Options.Workers
	rc        runChooser
	env       *ts.Env
}

// checker returns worker w's dispatch state for checks of mcWorkers
// exploration workers, rebuilding it when the round's split changed that
// width.
func (e *engine) checker(w, mcWorkers int) *checker {
	if e.traceGen {
		// Usage tracking needs sequentially bracketed firings; the model
		// checker would run one worker anyway, but be explicit.
		mcWorkers = 1
	}
	ck := e.checkers[w]
	if ck == nil || ck.mcWorkers != mcWorkers {
		opt := e.cfg.MC
		opt.Workers = mcWorkers
		ck = &checker{sess: mc.NewSession(e.sys, opt), mcWorkers: mcWorkers}
		ck.rc = runChooser{reg: e.reg, naive: e.cfg.Mode == ModeNaive}
		ck.env = ts.NewEnv(&ck.rc)
		e.checkers[w] = ck
	}
	return ck
}

// Synthesize completes the holes of the skeleton system sys.
//
// sys must be stateless: AppendRules, FireRule and all guards/actions may
// be invoked concurrently (from Workers goroutines) and must derive
// successors only by cloning, never by mutating shared structures.
//
// Every model-checker dispatch of the search runs with trace recording off:
// pruning needs only verdicts and usage masks, so candidates explore in the
// fingerprint-only memory regime (no per-state node records). After the
// search, each surviving solution is re-checked once with RecordTrace on —
// exercising the counterexample machinery and confirming the verdict with
// full per-state bookkeeping — and marked Solution.Reverified on success.
//
// Synthesize is SynthesizeCtx with a background context: never cancelled,
// no deadline.
func Synthesize(sys ts.System, cfg Config) (*Result, error) {
	return SynthesizeCtx(context.Background(), sys, cfg)
}

// SynthesizeCtx is Synthesize under a context: every model-checker
// dispatch runs with ctx, so a deadline or cancel stops the search
// cooperatively. A cancelled run is not an error — it returns the partial
// Result with Stats.Aborted set and the cancel cause in Stats.AbortCause;
// solutions found before the cancel are still re-verified (those whose
// re-check the cancel also cut short are dropped, preserving the
// every-returned-solution-is-reverified guarantee). A candidate whose
// model code panics does not stop the search at all: the dispatch is
// contained by the checker, tallied in Stats.Panicked, recorded as a
// failed candidate, and enumeration continues.
func SynthesizeCtx(ctx context.Context, sys ts.System, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Mode == ModeNaive && cfg.Workers > 1 {
		return nil, fmt.Errorf("core: ModeNaive is sequential; got Workers=%d", cfg.Workers)
	}
	if cfg.MC.Env != nil || cfg.MC.Usage != nil || cfg.MC.RecordTrace {
		return nil, fmt.Errorf("core: Config.MC must not set Env, Usage or RecordTrace")
	}
	if cfg.MC.Workers != 0 {
		return nil, fmt.Errorf("core: Config.MC.Workers is managed by the engine; set Config.MCWorkers")
	}
	if cfg.MC.CheckpointDir != "" || cfg.MC.Resume {
		return nil, fmt.Errorf("core: Config.MC must not set CheckpointDir or Resume; checkpointing is per-run, not per-dispatch")
	}
	if cfg.MC.Obs != nil {
		return nil, fmt.Errorf("core: Config.MC.Obs is managed by the engine; set Config.Obs")
	}
	if cfg.MCWorkers <= 0 {
		cfg.MCWorkers = 1
	}
	// Thread the collector into every dispatch: the checker streams its
	// exploration counters into it while the engine publishes the
	// synthesis-level counters and gauges around them.
	cfg.MC.Obs = cfg.Obs
	e := &engine{
		sys:       sys,
		cfg:       cfg,
		ctx:       ctx,
		reg:       newRegistry(),
		patterns:  newPatternTable(),
		checkers:  make([]*checker, cfg.Workers),
		solutions: make(map[string]Solution),
		traceGen:  cfg.Mode == ModePrune && cfg.PruneStyle == PruneTraceGeneralized,
	}
	start := time.Now()
	var err error
	var rounds int
	if cfg.Mode == ModeNaive {
		err = e.runNaive()
	} else {
		rounds, err = e.runPrune()
	}
	if err != nil {
		return nil, err
	}
	if eb := e.fatal.Load(); eb != nil {
		return nil, eb.err
	}
	e.reverify()
	if eb := e.fatal.Load(); eb != nil {
		return nil, eb.err
	}
	return e.result(rounds, time.Since(start)), nil
}

// reverify re-checks every recorded solution with trace recording on (see
// Synthesize). Re-checks are not synthesis dispatches: they do not count
// against MaxEvaluations, are invisible to OnEvaluate, and leave Evaluated
// and the verdict counters untouched; their memory profiles do merge into
// Stats.Space (they are where TraceNodes come from). A solution whose
// re-check does not come back Success is removed from the results — the
// traceless search was fooled (a fingerprint collision merged states under
// this candidate), and the documented guarantee is that such a candidate
// cannot survive into Result.Solutions.
func (e *engine) reverify() {
	e.solMu.Lock()
	defer e.solMu.Unlock()
	for key, sol := range e.solutions {
		rc := &runChooser{reg: e.reg, assign: sol.Assign, naive: e.cfg.Mode == ModeNaive}
		opt := e.cfg.MC
		opt.Env = ts.NewEnv(rc)
		opt.RecordTrace = true
		res, err := mc.CheckCtx(e.ctx, e.sys, opt)
		if err != nil {
			e.fatal.CompareAndSwap(nil, &errBox{err: err})
			return
		}
		e.mergeSpace(res.Space)
		if res.Verdict == mc.Success {
			sol.Reverified = true
			e.solutions[key] = sol
			continue
		}
		// Anything other than Success drops the solution — including an
		// aborted re-check: a cancelled one leaves the candidate unconfirmed
		// (the returned-solutions-are-reverified guarantee wins over keeping
		// it), and a panicking one just disproved its own model code.
		if res.Verdict == mc.Aborted && res.Abort != nil {
			if res.Abort.Panic {
				e.panicked.Add(1)
			} else {
				e.noteAbort(res.Abort)
			}
		}
		delete(e.solutions, key)
		if e.observing() {
			desc := formatAssign(sol.Assign, e.reg.holes())
			e.emit(obs.Event{
				Kind:     obs.EventSolutionDropped,
				Solution: desc,
				Text:     fmt.Sprintf("dropping solution %s: trace-on re-verification returned %v", desc, res.Verdict),
			})
		}
	}
}

// noteAbort records the first cancellation (later ones — racing workers
// observing the same cancel — are dropped) and emits the abort event.
func (e *engine) noteAbort(ab *mc.AbortInfo) {
	cause := context.Canceled.Error()
	if ab != nil && ab.Cause != nil {
		cause = ab.Cause.Error()
	}
	if e.aborted.CompareAndSwap(false, true) {
		e.abortCause.Store(&cause)
		if e.observing() {
			e.emit(obs.Event{
				Kind:  obs.EventAbort,
				Cause: cause,
				Text:  "synthesis aborted: " + cause,
			})
		}
	}
}

// mergeSpace folds one dispatch's memory profile into the aggregate.
func (e *engine) mergeSpace(s statespace.Stats) {
	e.spaceMu.Lock()
	e.space.Merge(s)
	e.spaceMu.Unlock()
}

// observing reports whether any progress consumer is attached. Event
// construction renders a human-readable Text line; call sites guard on
// this so an unobserved run never pays the formatting.
func (e *engine) observing() bool {
	return e.cfg.Events != nil || e.cfg.Obs != nil
}

// emit fans one structured progress event out to every attached consumer:
// the collector's event log and the typed Events callback. With a collector attached the event is stamped on its clock, so the
// callback and the retained log carry the same timestamp.
func (e *engine) emit(ev obs.Event) {
	if ev.ElapsedNS == 0 {
		ev.ElapsedNS = e.cfg.Obs.Elapsed().Nanoseconds()
	}
	if e.cfg.Obs != nil {
		e.cfg.Obs.Event(ev)
	}
	if e.cfg.Events != nil {
		e.cfg.Events(ev)
	}
}

// admit reserves one evaluation slot, honouring MaxEvaluations.
func (e *engine) admit() bool {
	if e.cfg.MaxEvaluations <= 0 {
		return true
	}
	if e.checkCount.Add(1) > e.cfg.MaxEvaluations {
		e.stop.Store(true)
		return false
	}
	return true
}

// dispatch model-checks one candidate configuration on cross-candidate
// worker w's session, with mcWorkers intra-check exploration workers (the
// chooser is safe for concurrent firings; see runChooser).
func (e *engine) dispatch(w int, assign []int, mcWorkers int) {
	ck := e.checker(w, mcWorkers)
	rc := &ck.rc
	rc.begin(assign)
	var usage mc.UsageTracker
	if e.traceGen {
		usage = rc
	}
	res, err := ck.sess.Check(e.ctx, ck.env, usage)
	if err != nil {
		e.fatal.CompareAndSwap(nil, &errBox{err: err})
		e.stop.Store(true)
		return
	}
	e.evaluated.Add(1)
	e.cfg.Obs.Count(obs.CEvaluated, 1)
	e.totalSeen.Add(int64(res.Stats.VisitedStates))
	e.mergeSpace(res.Space)
	switch res.Verdict {
	case mc.Success:
		e.successes.Add(1)
		if n := e.reg.count(); rc.naive && len(assign) < n {
			// Holes discovered during this very run executed with the
			// default action (index 0); the verified candidate includes
			// those bindings. (Under ModePrune such holes would have
			// wildcard-aborted, making Success impossible, so no padding
			// is needed there.)
			padded := make([]int, n)
			copy(padded, assign)
			assign = padded
		}
		e.recordSolution(assign, res.Stats.VisitedStates)
	case mc.Failure:
		e.failures.Add(1)
		if e.cfg.Mode == ModePrune {
			e.insertPattern(assign, res.Failure)
		}
	case mc.Unknown:
		e.unknowns.Add(1)
	case mc.Aborted:
		if res.Abort != nil && res.Abort.Panic {
			// A panicking candidate is a failed candidate, but never a
			// pruning pattern: the panic is a defect of the model code, not
			// a property violation, and generalizing it could prune sound
			// candidates. The search continues.
			e.panicked.Add(1)
			e.failures.Add(1)
			if e.observing() {
				desc := formatAssign(assign, e.reg.holes())
				e.emit(obs.Event{
					Kind:     obs.EventCandidatePanic,
					Solution: desc,
					State:    res.Abort.StateKey,
					Cause:    res.Abort.Cause.Error(),
					Text:     fmt.Sprintf("candidate %s panicked at state %q: %v", desc, res.Abort.StateKey, res.Abort.Cause),
				})
			}
		} else {
			// Cancelled (deadline, signal): stop the whole search.
			e.noteAbort(res.Abort)
			e.stop.Store(true)
		}
	}
	if e.cfg.Obs != nil {
		e.cfg.Obs.SetGauge(obs.GHoles, uint64(e.reg.count()))
		e.cfg.Obs.SetGauge(obs.GPatterns, uint64(e.patterns.Len()))
	}
	if e.cfg.OnEvaluate != nil {
		e.cfg.OnEvaluate(Event{
			Assign:        append([]int(nil), assign...),
			Verdict:       res.Verdict,
			Holes:         e.reg.count(),
			Patterns:      e.patterns.Len(),
			VisitedStates: res.Stats.VisitedStates,
		})
	}
}

func (e *engine) recordSolution(assign []int, visited int) {
	sol := Solution{Assign: append([]int(nil), assign...), VisitedStates: visited}
	key := fmt.Sprint(sol.Assign)
	e.solMu.Lock()
	if _, dup := e.solutions[key]; !dup {
		e.solutions[key] = sol
		e.cfg.Obs.Count(obs.CSolutions, 1)
		if e.observing() {
			desc := formatAssign(sol.Assign, e.reg.holes())
			e.emit(obs.Event{
				Kind:     obs.EventSolution,
				Solution: desc,
				States:   visited,
				Text:     fmt.Sprintf("solution %s (%d states)", desc, visited),
			})
		}
	}
	e.solMu.Unlock()
}

// insertPattern memoizes a candidate failure. An all-ones usage mask — a
// goal or liveness failure, or a run that consulted a hole past bit 63 —
// says nothing about which holes mattered, so the candidate is inserted as
// it stands (Insert keeps no reference to it).
func (e *engine) insertPattern(assign []int, f *mc.FailureInfo) {
	pat := assign
	if e.traceGen && f.UsageMask != ^uint64(0) {
		pat = append([]int(nil), assign...)
		for i := range pat {
			if i < 64 && f.UsageMask&(1<<uint(i)) == 0 {
				pat[i] = Wildcard
			}
		}
	}
	e.patterns.Insert(pat)
}

// runNaive is the baseline: enumerate the full product of discovered hole
// actions, growing the candidate vector as holes are discovered (appended
// least-significant with the same default, index 0, the run itself used).
func (e *engine) runNaive() error {
	var assign []int
	for {
		if !e.admit() {
			return nil
		}
		e.dispatch(0, assign, e.cfg.MCWorkers)
		if e.stop.Load() {
			return nil
		}
		holes := e.reg.holes()
		for len(assign) < len(holes) {
			assign = append(assign, 0)
		}
		if len(assign) == 0 {
			return nil // complete model: single run
		}
		if !incr(assign, radices(holes, len(assign))) {
			return nil
		}
	}
}

// runPrune is the paper's synthesis procedure: an initial empty-candidate
// run discovers the first holes; then rounds of exhaustive enumeration over
// the non-wildcard prefix, with the prefix expanding to cover newly
// discovered holes only after the current prefix is exhausted ("once a hole
// has been used as a non-wildcard, it cannot be a wildcard again").
func (e *engine) runPrune() (rounds int, err error) {
	if e.admit() {
		// The empty candidate is a single dispatch with no cross-candidate
		// work to parallelize; when the caller opted into intra-check
		// parallelism the whole Workers×MCWorkers budget goes to it.
		mcw := 1
		if e.cfg.MCWorkers > 1 {
			_, mcw = SplitParallelism(e.cfg.Workers*e.cfg.MCWorkers, 1)
		}
		e.dispatch(0, nil, mcw)
	}
	e.lastK = -1
	for !e.stop.Load() {
		k := e.reg.count()
		if k == e.lastK {
			break // no new holes discovered in the last round
		}
		if k == 0 {
			break // complete model (or inherently faulty): nothing to enumerate
		}
		holes := e.reg.holes()
		sizes := radices(holes, k)
		e.lastK = k
		rounds++
		e.cfg.Obs.SetGauge(obs.GRound, uint64(rounds))
		e.cfg.Obs.SetGauge(obs.GCandidates, spaceSize(sizes))
		if e.observing() {
			e.emit(obs.Event{
				Kind:       obs.EventRound,
				Round:      rounds,
				Holes:      k,
				Patterns:   e.patterns.Len(),
				Candidates: spaceSize(sizes),
				Text: fmt.Sprintf("round %d: enumerating %d holes (%d combinations, %d patterns)",
					rounds, k, spaceSize(sizes), e.patterns.Len()),
			})
		}
		e.enumerateRound(sizes)
	}
	return rounds, nil
}

// enumerateRound exhausts all combinations over the prefix sizes, splitting
// the Workers×MCWorkers budget between cross-candidate workers and
// per-dispatch exploration workers (see SplitParallelism).
func (e *engine) enumerateRound(sizes []int) {
	total := spaceSize(sizes)
	if total >= math.MaxUint64/2 {
		// The candidate space does not fit in index arithmetic (spaceSize
		// saturates and stride products would wrap). Fall back to the
		// index-free odometer: such spaces are only traversable at all
		// because pruning skips almost everything, so the lost parallel
		// chunking is irrelevant next to correctness.
		e.enumerateOdometer(sizes, e.cfg.MCWorkers)
		return
	}
	// Budget flows one way only, and only for callers that opted into
	// intra-check parallelism (MCWorkers > 1): idle cross-candidate slots
	// (rounds with fewer candidates than Workers) become intra-check
	// workers, but MCWorkers budget never inflates the cross-candidate
	// pool — Workers=1 keeps the deterministic dispatch order that
	// OnEvaluate and TestFigure2RunTable rely on, and MCWorkers<=1
	// keeps every dispatch on one exploration worker as documented.
	workers, mcw := e.cfg.Workers, 1
	if uint64(workers) > total {
		workers = int(total)
	}
	if e.cfg.MCWorkers > 1 {
		workers, mcw = SplitParallelism(e.cfg.Workers*e.cfg.MCWorkers, workers)
	}
	if workers <= 1 {
		e.enumerateRange(0, 0, total, sizes, mcw)
		return
	}
	var cursor atomic.Uint64
	chunk := total / uint64(workers*16)
	if chunk == 0 {
		chunk = 1
	}
	if chunk > 65536 {
		chunk = 65536
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !e.stop.Load() {
				hi := cursor.Add(chunk)
				lo := hi - chunk
				if lo >= total {
					return
				}
				if hi > total {
					hi = total
				}
				e.enumerateRange(w, lo, hi, sizes, mcw)
			}
		}(w)
	}
	wg.Wait()
}

// SplitParallelism splits a total core budget between cross-candidate
// synthesis workers and per-dispatch model-checker exploration workers.
// Cross-candidate parallelism is embarrassingly parallel (independent
// model-checker runs) and is filled first; only when the pending candidate
// count cannot occupy the budget does the remainder flow to intra-check
// exploration. The returned pair satisfies workers*mcWorkers <= budget,
// workers >= 1, mcWorkers >= 1.
func SplitParallelism(budget, pendingCandidates int) (workers, mcWorkers int) {
	if budget < 1 {
		budget = 1
	}
	if pendingCandidates < 1 {
		pendingCandidates = 1
	}
	workers = budget
	if workers > pendingCandidates {
		workers = pendingCandidates
	}
	return workers, budget / workers
}

// enumerateOdometer walks the whole prefix space without numeric indices,
// skipping pruned subtrees by direct digit advancement. Sequential; used
// only when the space size overflows uint64.
func (e *engine) enumerateOdometer(sizes []int, mcWorkers int) {
	assign := make([]int, len(sizes))
	for !e.stop.Load() {
		if matched, d := e.patterns.Match(assign); matched {
			e.skipped.Add(1) // subtree sizes are uncountable here; count events
			e.cfg.Obs.Count(obs.CSkipped, 1)
			if d < 0 {
				return // empty pattern: everything is pruned
			}
			if !advanceAt(assign, sizes, d) {
				return
			}
			continue
		}
		if !e.admit() {
			return
		}
		e.dispatch(0, assign, mcWorkers)
		if !incr(assign, sizes) {
			return
		}
	}
}

// enumerateRange evaluates candidate indices [lo, hi) as cross-candidate
// worker w, skipping pruned subtrees.
func (e *engine) enumerateRange(w int, lo, hi uint64, sizes []int, mcWorkers int) {
	assign := make([]int, len(sizes))
	for idx := lo; idx < hi && !e.stop.Load(); {
		decode(idx, sizes, assign)
		if matched, d := e.patterns.Match(assign); matched {
			next := subtreeEnd(idx, sizes, d)
			if next > hi {
				next = hi
			}
			e.skipped.Add(int64(next - idx))
			e.cfg.Obs.Count(obs.CSkipped, next-idx)
			idx = next
			continue
		}
		if !e.admit() {
			return
		}
		e.dispatch(w, assign, mcWorkers)
		idx++
	}
}

func (e *engine) result(rounds int, elapsed time.Duration) *Result {
	holes := e.reg.holes()
	r := &Result{
		HoleNames:   make([]string, len(holes)),
		HoleActions: make([][]string, len(holes)),
	}
	for i, h := range holes {
		r.HoleNames[i] = h.name
		r.HoleActions[i] = append([]string(nil), h.actions...)
	}
	for _, s := range e.solutions {
		r.Solutions = append(r.Solutions, s)
	}
	sort.Slice(r.Solutions, func(i, j int) bool {
		a, b := r.Solutions[i].Assign, r.Solutions[j].Assign
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	space := spaceSize(radices(holes, len(holes)))
	if e.cfg.Mode == ModePrune {
		space = spaceSizePlusWildcard(holes)
	}
	r.Stats = Stats{
		Holes:              len(holes),
		CandidateSpace:     space,
		Evaluated:          e.evaluated.Load(),
		Skipped:            e.skipped.Load(),
		Patterns:           e.patterns.Len(),
		Successes:          e.successes.Load(),
		Failures:           e.failures.Load(),
		Unknowns:           e.unknowns.Load(),
		TotalVisitedStates: e.totalSeen.Load(),
		Rounds:             rounds,
		Truncated:          e.stop.Load() && e.fatal.Load() == nil && !e.aborted.Load() && e.cfg.MaxEvaluations > 0,
		Panicked:           e.panicked.Load(),
		Aborted:            e.aborted.Load(),
		Elapsed:            elapsed,
		Space:              e.space,
	}
	if p := e.abortCause.Load(); p != nil {
		r.Stats.AbortCause = *p
	}
	return r
}
