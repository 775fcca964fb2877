// Package mc implements the embedded explicit-state model checker at the
// heart of VerC3. It performs breadth-first search over the reachable state
// space of a ts.System, deduplicating states by a 64-bit fingerprint of the
// canonical key (with optional scalarset symmetry reduction), checking
// safety invariants on every state, detecting deadlocks, and — after a
// complete exploration — checking reachability goals ("all stable states
// must be visited at least once").
//
// # Keying scheme and visited-set backends
//
// Every exploration shares one keying scheme (internal/statespace): a
// state's canonical encoding — its AppendKey binary encoding appended into
// per-worker scratch (canonicalized over all agent permutations when
// Options.Symmetry is on, see internal/symmetry) — is hashed to a 64-bit
// FNV-1a fingerprint, and only the fingerprint is stored. Nothing
// per-state is allocated to key a state: the
// encoding lands in a reusable buffer and the fingerprint comes straight
// off it (statespace.OfBytes). Because every worker count and search order
// dedupes through the same fingerprints, complete explorations report
// identical reachable-state counts under all of them.
//
// Where the fingerprints live is Options.Visited (package
// internal/visited): a Robin Hood open-addressing table (the default) or a
// disk-spilling two-level store that keeps RAM near Options.SpillMem while
// sorted fingerprint runs hold the bulk on disk (merged at every BFS level
// boundary). Both admit exactly the distinct fingerprints offered, and
// TryInsert doubles as the expansion-ownership claim — exactly one of any
// set of racing inserts wins — so the two are interchangeable bit-for-bit
// at any worker count. That two distinct states never share a fingerprint
// is what the exactness oracle (internal/ts/tstest) checks for the runs
// the test suite pins.
//
// # Trace-optional exploration
//
// The search is trace-optional: the frontier carries (state, depth, usage
// mask) values directly, and states are released as they are expanded. With
// Options.RecordTrace off — the synthesis default, where millions of
// dispatches only need verdicts and usage masks — no per-state bookkeeping
// outlives a state's expansion, so retained memory is the visited set plus
// the frontier high-water mark rather than O(states) node records. With
// RecordTrace on, a statespace.TraceStore allocates one parent-linked node
// per discovered state, and failures carry a replayable counterexample
// rebuilt from the parent chain. Result.Space profiles whichever regime ran
// (states, transitions, peak frontier, trace nodes, bytes retained).
//
// # One kernel, Workers and Order
//
// One kernel (explorer, in explorer.go) runs every safety exploration: one
// expand — enumerate, fire, key, admit, check, recycle, with the usage-mask
// bracket and the deadlock test — one checkState and fail, one abort path
// for cancellation, contained model panics and the state cap, one
// checkpoint/resume pair and one telemetry boundary. Two things vary.
//
// Options.Workers is how many workers walk a BFS level. Each owns a scratch
// struct — fingerprinting buffer, rule buffer, telemetry stage, the
// successors it admitted, and plain counters for transitions fired,
// wildcard aborts, admissions, recycles, depth reached and goals witnessed
// — so nothing on the expansion path is shared but the visited set. The
// counters are summed into the Result between levels and at the end of the
// run, when no worker is running; that is also where level-aware backends
// reorganize, telemetry is published and checkpoints are taken. One worker
// expands each level inline on the caller's goroutine, in frontier order,
// over a store without locks: the run is deterministic and its BFS
// counterexamples are minimal — the property the paper's candidate pruning
// relies on, since a minimal trace of a faulty protocol rarely exercises
// every hole, so its failure generalizes to every candidate sharing the
// trace's hole subset. Several workers claim the level's blocks one at a
// time from a shared cursor (statespace.ExpandLevel) and dedupe through a
// lock-striped store; their counts and verdicts are the same, their counterexamples are
// valid replays but not necessarily minimal, and the first violation
// recorded wins.
//
// Options.Order is how the frontier is walked. BFS goes level by level, the
// workers' output blocks becoming the next level without a copy, and every
// block going back to a free list the session keeps as soon as it is
// expanded (frontier.go). DFS runs one worker's blocks as a stack over the
// same expand. DFS order and usage tracking (Session.Check's tracker:
// one tracker brackets one firing at a time) always run one worker,
// whatever Workers says.
//
// # Sessions
//
// The kernel lives in a Session: NewSession resolves what every check of a
// system under fixed options shares and builds the workers, and each
// Session.Check resets them — buffers truncated, tallies zeroed, the flat
// visited table cleared in place — and explores. A check's environment
// (the chooser that resolves a skeleton's holes) and usage tracker are
// arguments of Session.Check, not options; Check and CheckCtx are a
// session used once, on a complete model. The synthesis engine gives each
// of its workers a session of its own, which is where the per-check fixed
// cost of tens of thousands of small checks goes (see Session).
//
// Enabled transitions reach the kernel as ts.Rule records: a worker asks
// the system to append the records of the state it expands into the
// worker's own buffer, fires each through FireRule, and asks RuleName only
// for a trace node or an error message. Nothing is allocated per
// transition.
//
// # Verdicts
//
// The checker returns a three-valued verdict (see Verdict): during
// synthesis a branch that reaches a hole still assigned the wildcard action
// is aborted, and if no failure is found elsewhere the run is "unknown"
// rather than a success.
//
// # Liveness
//
// Options.Liveness adds a second phase after a non-failing safety pass: a
// sequential nested-DFS cycle search (Courcoubetis–Vardi–Wolper style with
// Schwoon–Esparza early detection) per ts.LivenessGoal, over the product of
// the state graph with the goal's negated Büchi monitor and — for Fair
// goals — the weak-fairness copies construction. Violations are lassos:
// FailLiveness failures carry a stem-plus-cycle trace (FailureInfo.
// CycleStart) whose replay closes a real cycle. The phase runs on the
// session's worker 0 once the safety pass is over and shares by
// construction what is not the search: successors (the worker's rule
// buffer and explorer.fire), keys (the keyer's product form), recycling,
// the cancellation poll, panic containment and telemetry; its wildcard and
// recycle tallies fold into Stats and Space like the safety pass's. Its
// own are the monitors, the fairness copies, the blue/cyan/red colouring
// and lasso assembly, and the counters LiveStates, RedStates and CycleLen
// in Result.Space. See liveness.go.
package mc

import (
	"context"
	"fmt"
	"io"
	"time"

	"verc3/internal/faultfs"
	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// Verdict is the outcome of a model-checking run.
type Verdict int

const (
	// Success: the full state space was explored, no property violated, no
	// wildcard encountered.
	Success Verdict = iota
	// Failure: a property violation was found.
	Failure
	// Unknown: no violation found, but at least one execution branch was
	// aborted at a wildcard hole (or the state cap was hit), so success
	// cannot be concluded.
	Unknown
	// Aborted: the run was cut short — cancelled, timed out, or stopped by
	// a contained model-code panic — before the space was fully explored.
	// Result.Abort carries the cause and Result.Stats the partial counts.
	Aborted
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Success:
		return "success"
	case Failure:
		return "failure"
	case Unknown:
		return "unknown"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// FailKind classifies property violations.
type FailKind int

const (
	// FailInvariant: a safety invariant does not hold in a reachable state.
	FailInvariant FailKind = iota
	// FailDeadlock: a non-quiescent reachable state has no successors.
	FailDeadlock
	// FailGoal: exploration completed without wildcards but a reachability
	// goal was never witnessed.
	FailGoal
	// FailLiveness: a liveness goal is violated by a lasso — a reachable
	// cycle along which the goal's negation holds forever (found by the
	// nested-DFS driver under Options.Liveness).
	FailLiveness
)

// String returns the failure-kind name.
func (k FailKind) String() string {
	switch k {
	case FailInvariant:
		return "invariant"
	case FailDeadlock:
		return "deadlock"
	case FailGoal:
		return "goal"
	case FailLiveness:
		return "liveness"
	default:
		return fmt.Sprintf("FailKind(%d)", int(k))
	}
}

// FailureInfo describes a property violation.
type FailureInfo struct {
	Kind FailKind
	// Name of the violated invariant or goal ("deadlock" for deadlocks).
	Name string
	// Trace is the counterexample: the states from an initial state to the
	// violating state, with the transition names taken between them.
	// Trace[i].Rule is the transition that led *into* Trace[i] (empty for
	// the initial state). Populated only when Options.RecordTrace is set;
	// for goal failures there is no single trace and Trace is nil.
	Trace []TraceStep
	// UsageMask is the bitmask of hole indices consulted along the error
	// path (see UsageTracker). For goal failures every bit is set, since
	// the violation is a property of the whole explored space; liveness
	// failures also set every bit — the nested-DFS phase does not track
	// usage, and a lasso found under a partial assignment fires only
	// concretely resolved holes, so it persists under every extension.
	// Zero when no tracker is installed.
	UsageMask uint64
	// CycleStart is meaningful only for FailLiveness with a recorded Trace:
	// the trace is a lasso, and CycleStart is the index of the step the
	// cycle loops back to. Trace[CycleStart:] is the cycle — its final step
	// fires the closing transition and its state revisits
	// Trace[CycleStart].State. Steps before CycleStart are the stem.
	CycleStart int
}

// TraceStep is one state of a counterexample trace.
type TraceStep struct {
	Rule  string
	State ts.State
}

// Stats aggregates exploration statistics.
type Stats struct {
	// VisitedStates is the number of distinct (canonical) states reached.
	VisitedStates int
	// FiredTransitions is the number of successful transition firings.
	FiredTransitions int
	// WildcardAborts counts branches aborted at wildcard holes.
	WildcardAborts int
	// MaxDepth is the largest BFS depth reached (0 for initial states).
	MaxDepth int
}

// Result is the outcome of Check.
type Result struct {
	Verdict     Verdict
	Failure     *FailureInfo // non-nil iff Verdict == Failure
	Stats       Stats
	WildcardHit bool
	// CapHit reports that the MaxStates cap stopped exploration.
	CapHit bool
	// Abort is non-nil iff Verdict == Aborted: the run was cancelled, timed
	// out, or recovered a model-code panic, and Stats/Space hold the
	// partial counts accumulated up to the abort point. A recorded failure
	// outranks an abort (a violation found before the cancel fired is still
	// a violation); an abort outranks the wildcard/cap downgrades.
	Abort *AbortInfo
	// Resumed reports that the run was seeded from a committed checkpoint
	// (Options.Resume) rather than the system's initial states; its Stats
	// include the checkpointed prefix.
	Resumed bool
	// Space is the memory profile of the exploration: visited-set size,
	// frontier high-water mark, trace-store nodes (always 0 with
	// RecordTrace off) and the structural bytes-retained estimate. The
	// checker leaves the allocation counters (Mallocs/AllocBytes) zero.
	Space statespace.Stats
}

// UsageTracker lets the synthesis layer observe which holes each transition
// firing consulted, so failures can be generalized to the executed hole
// subset (the paper's Ct). The checker brackets every Fire call with
// ResetUsage/Usage and accumulates masks along paths.
type UsageTracker interface {
	// ResetUsage clears the per-firing usage set.
	ResetUsage()
	// Usage returns the bitmask of hole indices consulted since the last
	// ResetUsage. A tracker that cannot say — a hole with index >= 64 was
	// consulted — returns all ones, which every consumer reads as "every
	// hole may have mattered": the synthesis engine then inserts the failing
	// candidate as it stands instead of generalizing it.
	Usage() uint64
}

// SearchOrder selects the exploration strategy.
type SearchOrder int

const (
	// BFS yields minimal counterexample traces (the default; required for
	// the pruning optimization to be most effective).
	BFS SearchOrder = iota
	// DFS uses depth-first order. Traces are not minimal; provided for the
	// ablation study.
	DFS
)

// Options configures a model-checking run. The zero value checks with
// symmetry reduction off, deadlock checking on, no state cap. A check's
// environment and usage tracker are not options: they are per check, and
// Session.Check takes them.
type Options struct {
	// Symmetry enables scalarset symmetry reduction for states implementing
	// ts.Permutable.
	Symmetry bool
	// MaxStates caps the number of visited states (0 = unlimited). Hitting
	// the cap downgrades a would-be success to Unknown. One worker stops at
	// the first expansion past the cap; several workers each count their
	// own admissions on top of the total at the last level boundary, so
	// they may overshoot by up to one level.
	MaxStates int
	// RecordTrace allocates a parent-linked trace-store node per discovered
	// state so failures carry a replayable counterexample. Costs O(states)
	// memory; with it off (the synthesis default) the checker retains only
	// the 8-byte fingerprint per state plus the transient frontier.
	RecordTrace bool
	// Order selects BFS (default) or DFS.
	Order SearchOrder
	// Workers is the number of workers that expand each BFS level; values
	// <= 1 mean one. One worker runs inline on the caller's goroutine and is
	// deterministic, with minimal BFS counterexamples. More spread every
	// level over that many goroutines and dedupe through a lock-striped
	// visited set, which requires the system's AppendRules/FireRule — and any
	// Chooser behind Env — to be safe for concurrent use (complete models
	// and internal/core's chooser are). Their counterexample traces are
	// valid replays but not guaranteed minimal; verdicts and the counts of
	// complete explorations are identical at every width because all dedupe
	// by the same canonical-key fingerprint. DFS order and usage tracking
	// (a Session.Check tracker) always run one worker.
	Workers int
	// Visited selects the visited-set storage backend (internal/visited).
	// The zero value is visited.Flat, the open-addressing table; Spill
	// overflows the flat tier to sorted disk runs, keeping RAM bounded by
	// SpillMem. Both are exact and interchangeable.
	Visited visited.Kind
	// SpillMem is the spill backend's in-RAM tier budget in bytes
	// (0 = visited.DefaultSpillMem). Ignored by other backends.
	SpillMem int64
	// SpillDir is the parent directory for the spill backend's run files
	// ("" = the OS temp dir); a per-run subdirectory is created lazily and
	// removed when the run finishes. Ignored by other backends.
	SpillDir string
	// CheckpointDir enables level-boundary checkpointing: at every BFS
	// level boundary the visited fingerprints, the frontier states and the
	// run statistics are snapshotted into a versioned subdirectory of this
	// directory, committed atomically by rename (see checkpoint.go). "" —
	// the default — disables checkpointing. Requires a system that
	// implements ts.KeyDecoder, BFS order, RecordTrace off and checks
	// without a usage tracker.
	CheckpointDir string
	// CheckpointEvery throttles how often level boundaries actually save.
	// Zero — the default — is the adaptive policy: a boundary saves only
	// when at least max(250ms, 20× the previous save's cost) has elapsed
	// since the last save, which bounds checkpoint overhead at roughly 5%
	// of wall-clock regardless of model size (E18). A positive duration
	// replaces the 250ms floor with a fixed minimum spacing (the 20× cost
	// rule still applies); a negative value saves at every level boundary
	// — the crash-harness setting, not a production one.
	CheckpointEvery time.Duration
	// Resume seeds the run from the newest committed checkpoint under
	// CheckpointDir instead of the system's initial states (a fresh start
	// when none exists). A resumed run reproduces the uninterrupted run's
	// verdict and state/transition/depth counts bit-identically.
	Resume bool
	// FS is the filesystem seam under the spill backend and the checkpoint
	// writer (nil = the real OS). Fault-injection tests plug a
	// faultfs.Injector in here; production code leaves it nil.
	FS faultfs.FS
	// NoRecycle disables successor recycling: the checker never hands states
	// back to a ts.Recycler system, so every successor is built fresh. Exploration results are
	// identical either way (the zoo recycling-equivalence test pins this);
	// the flag exists for differential testing and the E15 ablation.
	NoRecycle bool
	// Liveness additionally checks the system's liveness goals
	// (ts.LivenessReporter) after a safety pass that found no violation:
	// a sequential nested-DFS cycle search per goal over the product with
	// the goal's negated Büchi monitor (and, for Fair goals, the weak-
	// fairness copies), run on the safety kernel's worker 0 with its
	// successors, keys, recycling, cancellation polls and panic
	// containment. Its wildcard aborts and recycles count in Stats and
	// Space like the safety pass's. The phase keys product states without
	// symmetry reduction even when Symmetry is set (the safety pass still
	// reduces): per-process predicates like "process i holds the token"
	// are not permutation-invariant, so cycle detection on the quotient
	// graph would be unsound. See internal/mc/liveness.go.
	Liveness bool
	// Obs optionally publishes live telemetry into a collector: states /
	// transitions / duplicates / recycled counters on the hot path (staged
	// per-worker, flushed in batches — see internal/obs), sampled per-phase
	// timings, and depth / frontier / visited-bytes gauges plus a timeline
	// mark at every BFS level boundary. Nil disables all of it at zero
	// cost; after a run every counter equals the corresponding
	// statespace.Stats field (the zoo obs-equivalence test pins this).
	// Synthesis dispatches running concurrently may share one collector.
	Obs *obs.Collector
}

// Session checks one system under one set of options, any number of times:
// the synthesis engine's shape, where tens of thousands of small checks
// differ only in the candidate the environment's chooser resolves holes to.
// What a check needs beyond its own Result — the exploration kernel, its
// workers' key and rule buffers and frontier blocks, the canonicalizer, the
// goal flags, the flat visited table — is built by NewSession and kept:
// each Check empties it (the visited table is cleared in place; a backend that
// cannot be, such as spill, is rebuilt) instead of allocating it again.
// Reuse is invisible in the results: a session's n-th Check returns what a
// one-shot Check of the same candidate returns, pool traffic aside, and
// nothing a later Check overwrites is reachable from an earlier Result.
//
// A Session serves one Check at a time; concurrent synthesis workers each
// own one.
type Session struct {
	e explorer
}

// NewSession prepares sys for repeated checking under opt. What differs
// from check to check — the environment and the usage tracker — Check
// takes.
func NewSession(sys ts.System, opt Options) *Session {
	s := new(Session)
	s.e.init(sys, opt)
	return s
}

// Check explores the reachable state space of the session's system with
// env as the execution environment handed to transitions (nil for complete
// models) and usage optionally tracking per-firing hole usage, stopping
// cooperatively when ctx is cancelled or its deadline passes. A cancelled
// run is not an error: it returns Verdict == Aborted with a non-nil
// Result.Abort carrying the cancel cause (context.Cause) and whatever
// partial statistics the exploration accumulated.
//
// The error return is reserved for malformed models (no initial states,
// transition errors other than ts.ErrWildcard) and I/O failures of the
// spill and checkpoint layers; property violations — and aborts — are
// reported in the Result, not as errors.
func (s *Session) Check(ctx context.Context, env *ts.Env, usage UsageTracker) (*Result, error) {
	e := &s.e
	if ps, ok := e.sys.(poolStatser); ok {
		ps.PoolStats()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The safety pass, then — under Options.Liveness — the nested-DFS
	// liveness phase on its non-failing result. An aborted safety pass skips
	// the liveness phase: its product search is rooted in the same (now
	// incomplete) space.
	res, err := e.explore(ctx, env, usage)
	if err != nil {
		return nil, err
	}
	if e.opt.Liveness && res.Verdict != Failure && res.Verdict != Aborted {
		if err := checkLiveness(e); err != nil {
			return nil, err
		}
	}
	res.Space.PoolHits, res.Space.PoolMisses = e.poolTraffic()
	return res, nil
}

// poolStatser is a system that still answers PoolStats, as msi.System does.
// Session.Check calls it before anything else and ignores the answer — the
// pool traffic is tallied per worker — because the call marks where a check
// begins for anything wrapping the system: the repository benchmark's traced
// synthesis child times its dispatch spans from it.
type poolStatser interface {
	PoolStats() (hits, misses uint64)
}

// Check explores the reachable state space of sys under opt. It is
// CheckCtx with a background context: never cancelled, no deadline.
func Check(sys ts.System, opt Options) (*Result, error) {
	return CheckCtx(context.Background(), sys, opt)
}

// CheckCtx is one check of a session made for it, of a complete model: no
// environment, no usage tracker. See Session.Check for the contract; a
// skeleton with holes is checked through a session, whose Check takes the
// environment that resolves them.
func CheckCtx(ctx context.Context, sys ts.System, opt Options) (*Result, error) {
	return NewSession(sys, opt).Check(ctx, nil, nil)
}

// visitedConfig maps checker options onto the storage layer's config,
// threading the fault-injection seam and the retry telemetry hook through
// to the spill backend.
func visitedConfig(opt Options) visited.Config {
	return visited.Config{
		Kind:     opt.Visited,
		SpillMem: opt.SpillMem,
		SpillDir: opt.SpillDir,
		FS:       opt.FS,
		OnRetry:  ioRetryHook(opt.Obs),
	}
}

// closeStore releases backends that own external resources (the spill
// backend's run files). The returned error is the store's first I/O
// failure, so even runs that hit no level boundary surface it. A closed
// store is never a visited.Resetter, so a session does not reuse it.
func closeStore(store visited.Store) error {
	if c, ok := store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// keyer is the per-worker fingerprinting scratch: the canonicalizer handle
// plus a reusable encoding buffer for the no-symmetry appender path. Every
// worker owns one — never shared, never locked — so the traceless
// synthesis regime fingerprints without allocating at all. The zero value
// (nil canon) keys without symmetry reduction.
type keyer struct {
	canon *symmetry.Canonicalizer
	buf   []byte // reusable AppendKey buffer (canon == nil path)
}

// fingerprint returns the 64-bit fingerprint of s's canonical encoding —
// the keying scheme shared by every run (which is what makes reachable-
// state counts comparable across widths and orders). The hot path appends
// s's encoding into the keyer's reusable buffer (or the canonicalizer's
// pooled scratch under symmetry) and hashes it in place.
func (k *keyer) fingerprint(s ts.State) statespace.Fingerprint {
	if k.canon != nil {
		return k.canon.Fingerprint(s)
	}
	k.buf = s.AppendKey(k.buf[:0])
	return statespace.OfBytes(k.buf)
}

// product fingerprints the liveness product state (s, q, c): s's own
// encoding, never canonicalized (see liveness.go), extended with the
// monitor and fairness-copy bytes.
func (k *keyer) product(s ts.State, q, c uint8) statespace.Fingerprint {
	k.buf = append(s.AppendKey(k.buf[:0]), q, c)
	return statespace.OfBytes(k.buf)
}

// tracePath converts a trace-store parent chain into initial→violation
// counterexample steps.
func tracePath(n *statespace.TraceNode[ts.State]) []TraceStep {
	chain := n.Path()
	out := make([]TraceStep, len(chain))
	for i, link := range chain {
		out[i] = TraceStep{Rule: link.Rule, State: link.State}
	}
	return out
}
