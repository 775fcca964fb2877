// Package verc3 is a Go reproduction of "VerC3: A Library for Explicit
// State Synthesis of Concurrent Systems" (Elver, Banks, Jackson &
// Nagarajan, DATE 2018), grown into a parallel, memory-lean synthesis and
// model-checking engine.
//
// # Layering
//
// The library lives under internal/, lowest layer first:
//
//   - internal/ts — the guarded-command modelling contract: a Murphi-like
//     interface through which systems describe initial states,
//     enabled transitions, invariants, reachability goals, liveness goals
//     with weak-fairness constraints (ts.LivenessReporter /
//     ts.FairnessReporter) and synthesis holes (ts.Env.Choose). States key themselves twice over: the
//     mandatory human-readable Key() string (traces, fallback) and the
//     optional ts.KeyAppender binary encoding appended into caller-owned
//     buffers, which is what the exploration hot path hashes. One
//     ownership rule covers every copy: a state owns all of its mutable
//     storage, so Clone, CopyFrom and PermuteInto results can each be
//     overwritten in place.
//   - internal/statespace — the exploration substrate: 64-bit state
//     fingerprints (OfBytes, a fixed word-at-a-time multiply hash that
//     allocates nothing), a ring-buffer frontier queue, a
//     level-synchronous parallel work distributor that
//     hands each expansion a stable worker index for per-worker scratch,
//     the optional parent-linked trace store, and the Stats memory
//     profile.
//   - internal/visited — visited-set storage behind one Store interface,
//     two exact backends: a Robin Hood open-addressing fingerprint table
//     (the default, 15/16 load cap) and a disk-spilling two-level store
//     (bounded RAM: the flat tier overflows to sorted runs merged at BFS
//     level boundaries).
//   - internal/symmetry — scalarset canonicalization (goroutine-safe), used
//     for symmetry reduction of states implementing ts.Permutable. The
//     Fingerprint hot path minimizes binary encodings over pooled
//     scratch — one Clone that PermuteInto overwrites per permutation, plus
//     two key buffers — at zero steady-state allocations, sorting the agents
//     (ts.AgentComparer) and permuting only within ties instead of
//     trying all N!; the string Key path remains for traces and as the
//     exhaustive reference.
//   - internal/faultfs — the filesystem seam under the spill backend: a
//     small FS/File interface over the real OS,
//     a deterministic fault injector for tests (planned errors, short
//     writes, transient glitches per operation), and the shared
//     transient-retry policy (capped backoff; hard faults never retried).
//   - internal/mc — the embedded explicit-state model checker: one
//     exploration kernel over the shared fingerprint keying scheme with
//     per-worker scratch and counters — one worker is deterministic with
//     minimal BFS counterexamples, several spread each BFS level over
//     goroutines, DFS runs the same expansion as a stack — three-valued
//     verdicts, deadlock and goal checking,
//     plus an opt-in nested-DFS liveness pass (mc.Options.Liveness) that
//     checks declared ts.LivenessGoal properties under weak fairness and
//     reports violations as lasso counterexamples (stem + cycle).
//     Runs are cancellable (mc.CheckCtx) and contain model-code panics as
//     diagnosable Aborted verdicts.
//   - internal/core — the paper's contribution: synthesis by lazy hole
//     discovery and candidate pruning, with cross-candidate and intra-check
//     parallelism sharing one budget (core.SplitParallelism).
//   - internal/spec — the data frontend: versioned verc3_model_v1 JSON
//     model specs (typed variables, guarded-command rulesets in a small
//     validated expression language, invariants, goals, liveness and
//     fairness declarations, choose holes) loaded with path-carrying
//     validation errors and compiled to a ts.System of the package's own,
//     with successor recycling, rule-record enumeration, allocation-free
//     binary keying and, when the spec declares it, symmetry. The committed specs under
//     examples/specs/ are the only source of the paper's Figure 2 example,
//     Peterson's algorithm and the token ring, each pinned to absolute
//     answers.
//   - internal/msi — the hand-written case study, with its unordered
//     interconnect of six-byte messages; internal/trace renders
//     counterexamples; internal/zoo is the fixed table of named systems
//     (with sketch metadata) behind the command-line tools, building fig2,
//     peterson, token-ring and their sketches from the embedded specs.
//
// The command-line tools are cmd/verc3-verify and cmd/verc3-synth
// (cmd/verc3-report reads the -report files they write); the paper's
// Table I and Figure 2 are verc3-synth runs (EXPERIMENTS.md lists the
// command lines), and runnable demos live under examples/. The two tools'
// shared flag block lives in cliutil.CommonFlags: -spec loads the system
// from a JSON model spec (verc3-verify refuses sketch specs, pointing at
// verc3-synth), -stats prints the memory profile and the heap allocations
// of the whole run, -visited flat|spill selects the visited-set backend,
// sized with -spill-mem-mb / -spill-dir, -timeout puts a wall-clock
// deadline on the run (expiry — like SIGINT/SIGTERM — cancels
// cooperatively: partial stats, profiles and -report still flush, exit
// code 3), and -cpuprofile / -memprofile write pprof profiles (per-phase
// attribution of the exploration loop comes from -report's sampled phase
// timings instead). Negative sizing or parallelism
// values are rejected up front rather than silently clamped.
// The repository benchmark lives in bench/ (go run ./bench; declared by
// BENCHMARK.json): six paper-scale workloads, end to end and layer by
// layer, whose end-to-end JSON CI archives per commit.
//
// # Trace-optional exploration
//
// Exploration is memory-lean by default: the frontier carries (state,
// usage-mask) entries directly in blocks that go back to a free list as
// soon as they are expanded, so a run without mc.Options.RecordTrace retains only
// the 8-byte fingerprint per visited state — the regime every synthesis
// dispatch runs in. Turning RecordTrace on allocates a parent-linked trace
// node per state, buying replayable (and, with one worker, minimal)
// counterexamples for O(states) memory. mc.Result.Space reports which
// price was paid (states, peak frontier, trace nodes, bytes retained);
// the synthesis engine aggregates it per run and re-checks every reported
// solution with traces on, so fingerprint collisions during the traceless
// search cannot survive into the results unnoticed.
//
// # Visited-set backends and exactness
//
// Where the fingerprints live is mc.Options.Visited: flat open addressing
// (default) or the disk-spilling two-level store, which keeps RAM near a
// fixed tier budget while the bulk of the set lives in sorted run files.
// Both admit exactly the distinct fingerprints offered, so they are
// interchangeable bit-for-bit and differ only in measured bytes per state
// and where those bytes live; racing parallel inserts of one fingerprint
// have exactly one winner. What remains probabilistic is the fingerprint
// itself: two distinct states sharing 64 bits would merge. The exactness
// oracle in internal/ts/tstest re-explores by exact state identity and
// fails on any such merge; the test suite runs it over every zoo entry and
// spec, every candidate the Table I syntheses dispatch, and the
// 1,930,178-state unreduced 5-cache MSI walk, so those results are exact.
// Other runs carry the birthday-bound risk (about 3·10⁻⁸ at a million
// states).
//
// # Zero-allocation keying
//
// Keying is the work done for every offered successor, visited or not, so
// it is the exploration hot path's hot path. The binary pipeline never
// materializes a per-state encoding: AppendKey writes into reusable
// per-worker buffers, OfBytes hashes them in place, and under symmetry
// the canonicalizer's pooled scratch state absorbs the permutations it
// tries (294.9 -> 23.7 mallocs/state and ~10x wall-clock on msi-complete
// with symmetry on; allocations that remain are the model's own successor
// clones). It does not try all N! of them: states that implement
// ts.AgentComparer have their agents sorted first, and only the
// arrangements within tie classes — agents whose local data compares
// equal — are encoded and compared, 3.75 per offered successor instead of
// 120 on the 5-cache MSI protocol, with fingerprints bit-identical to the
// exhaustive search (E19).
//
// # Successor lifecycle
//
// The allocations keying left behind were per transition: a Fire closure
// for every enabled transition of every expanded state, and a deep clone
// of the source for every one fired, most of which die as visited-set
// duplicates microseconds later. Both are gone. ts.System is a rule-record
// contract: enabled transitions are ts.Rule records — rule id,
// agent, message index, name index; twelve pointer-free bytes — appended
// into a buffer the expanding worker owns and fired through one
// FireRule(src, rule, env) switch, with names looked up in tables built
// once (per process, for MSI) only when a trace node, an error or a
// fairness requirement shows one. A record means something only next to
// the state it was enumerated from, so the kernel fires a state's records
// before it lets go of the state and never keeps one. Systems that embed
// a ts.Pool draw successors from its recycled states (overwritten in
// place by the state type's own CopyFrom; the ownership rule is why a pooled
// state never aliases a live one), and the checker returns dead states to
// the pool through ts.Recycler: every rejected duplicate, plus —
// traceless — each expanded state once its rules have fired and whatever
// the frontier still holds when a run ends at a violation. States that
// reach trace nodes or counterexamples escape the pool forever. Records
// are the only model contract; a small model need not write them by hand,
// because internal/spec compiles them from a JSON spec (examples/quickstart).
// The one closure form left is the msi model's transition appender, which
// the repository benchmark's layer walk (bench/walk.go) enumerates through.
//
// One level up, mc.Session keeps what a check needs beyond its Result —
// the kernel, its workers' key and rule buffers and frontier blocks, the
// canonicalizer, the goal flags, the flat visited table (cleared in
// place; a grown table or another backend is rebuilt) — across checks,
// and each synthesis worker owns one, with one chooser it points at each
// candidate. mc.Check is NewSession(...).Check(...): there is one path.
// Together: 8.4 -> 0.3 mallocs/state on the unreduced 5-cache MSI walk,
// 375 -> 5 mallocs per synthesis dispatch on MSI-large (pinned <= 1.5 and
// <= 20 by regression tests; mc.Options.NoRecycle is the ablation knob,
// and -stats reports pool hit/miss/recycled counts).
//
// # Liveness checking
//
// Safety exploration answers "nothing bad is reachable"; the liveness
// pass (mc.Options.Liveness) answers "something good eventually happens".
// Systems declare ts.LivenessGoal properties — eventually-always (FG P)
// and leads-to (G(P -> F Q)) — optionally under weak fairness; the
// checker negates each goal into a Büchi monitor, products it with the
// system (fairness via Choueka counter copies) and runs a nested DFS
// (blue search for accepting states, red search for cycles through them)
// on the safety kernel's own worker — its successors, keys, recycling,
// cancellation polls and panic containment. Violations surface as lasso counterexamples: a stem into a cycle
// that repeats forever, rendered by internal/trace with cycle markers and
// replay-validated in the differential tests. A liveness failure prunes
// synthesis candidates exactly like a safety failure. Token-ring and Peterson pass their
// goals; the complete MSI protocol is a pinned true positive (no network
// fairness is declared, so a writer can starve behind undelivered
// messages), and the msi-fair zoo entry is the same protocol plus
// per-channel delivery fairness, under which that lasso is excluded as
// unfair and the same goals pass.
//
// # Failure model
//
// Runs that cannot finish still report honestly. Cancellation (context
// deadline, -timeout, SIGINT/SIGTERM) is cooperative — polled at level
// boundaries and every 1024 expansions — and returns the Aborted verdict
// with true partial statistics and the cancel cause; a definite property
// violation found first outranks it, and an aborted run never claims
// goal or liveness results for states it did not visit. Panics in model
// code are recovered on whichever goroutine ran it and surface as an
// Aborted verdict carrying the offending state's key and the stack; in
// synthesis a
// panicking candidate is counted as a failed candidate (Stats.Panicked)
// — never a pruning pattern — and the search continues. A run is not
// snapshotted to disk: the longest workload takes seconds, so an
// interrupted run is simply run again. All spill I/O goes through the
// internal/faultfs seam: transient faults retry with capped backoff, hard
// faults go sticky and surface instead of corrupting the run. See
// DESIGN.md "Failure model".
//
// The benchmark harness in bench_test.go times every table and figure of
// the paper's evaluation plus this repo's ablations (worker
// counts, visited-set keying and backends, trace on/off memory, the
// keying pipeline); see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-versus-measured results.
package verc3
