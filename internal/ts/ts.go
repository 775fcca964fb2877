// Package ts provides the transition-system modelling layer of VerC3: an
// embedded, Murphi-like guarded-command DSL for describing finite-state
// concurrent systems in plain Go.
//
// A system is described by implementing the System interface: it supplies a
// set of initial states and, for every state, its enabled transitions as
// Rule records, which it fires through one FireRule (see "Successor
// lifecycle"). Small models need not implement it by hand: internal/spec
// compiles one from a JSON model spec. Transitions fire lazily so that the
// synthesis layer (internal/core) can interpose "holes" whose actions are
// chosen by the synthesizer; firing a transition whose hole is still
// unassigned (a wildcard) aborts just that execution branch.
//
// States are explicit: every state must be able to produce a canonical
// encoding of itself, which the model checker deduplicates visited states
// by, and a private copy (Clone) so rule actions can mutate freely.
//
// Every state keys itself twice. Key() string is the human-readable
// canonical encoding — it is what counterexample traces show. AppendKey
// (KeyAppender, part of State) is a compact binary encoding appended into a
// caller-owned buffer, which is what the checker, the canonicalizer and the
// checkpoint writer fingerprint: no string is ever materialized per visited
// state, and there is no string fallback. Symmetric states implement Permutable —
// the canonicalizer renames one reusable Clone in place, once per
// permutation it tries — and can further implement AgentComparer so it
// sorts the agents first and tries only the permutations that keep the
// sorted order, instead of all N!.
//
// # Ownership
//
// One rule covers every way a state is copied: a state owns all of its
// mutable storage. Clone returns a state that shares none with the
// receiver, a pooling model's CopyFrom and Permutable.PermuteInto leave
// their destination sharing none with the source, and so any state may be
// overwritten in place — by a rule action, by the symmetry canonicalizer's
// scratch, by a pooled successor being reused — without a live state
// noticing. Only immutable payloads (strings, tables built once at
// construction) may be shared.
//
// # Successor lifecycle
//
// What an exploration allocates per state is decided here, by two
// conventions that keep its two kinds of per-transition data out of the
// heap.
//
// Enabled transitions are records, not closures. A System appends one Rule
// — rule id, agent, message index, name index; twelve pointer-free bytes —
// per enabled transition into a buffer the calling worker owns and
// truncates per expansion, and fires one through FireRule(src, rule, env).
// The records belong to that worker and mean something only next to the
// state they were enumerated from, while it is unmodified: a message index
// is a position in that state's network. The kernel fires a state's records
// before it recycles the state and never keeps one. Names are looked up by
// RuleName, from tables built once, when something shows them.
//
// Successors come from a pool. FireRule deep-copies the source state once
// per offered transition, and in a dense state space most successors are
// rejected as duplicates the moment they are fingerprinted — the copy was
// pure waste. So:
//
//   - Recycler, implemented by the system, accepts a dead state back
//     (Recycle) so its storage can seed the next successor.
//   - Pool is its one implementation: a system embeds a Pool[*itsState]
//     to become a Recycler, and draws successors from Pool.Get, overwriting
//     a hit in place with its own state type's CopyFrom (Clone into
//     existing storage) and Cloning on a miss. Get tallies each hit and
//     miss on the firing's Env, which is how the checker counts pool
//     traffic per worker.
//
// Who may recycle: every State returned by Initial or FireRule is owned by
// the caller, and a caller may hand any such state to Recycle once nothing
// else can reach it — the model checker does so for rejected duplicate
// successors (never enqueued, never traced) and, in traceless runs, for
// each expanded state once its rules have fired and for whatever the
// frontier still holds when a run ends early. A state escapes the pool
// forever when it is retained anywhere: trace nodes and counterexamples are
// never recycled. The ownership rule above is what makes reuse safe: a
// recycled state's storage belongs to nobody else.
//
// # Properties
//
// Systems carry three property tiers: Invariant (safety, checked on every
// reachable state), ReachGoal ("eventually somewhere" over the reachable
// set, via GoalReporter), and LivenessGoal (temporal properties over
// infinite executions — "eventually always P" and "P leads-to Q" — via
// LivenessReporter, checked by the model checker's nested-DFS cycle
// search). Liveness goals may be restricted to weakly fair executions
// through FairnessReporter, so idle-forever schedules don't count as
// starvation counterexamples.
package ts

import "errors"

// ErrWildcard is returned by FireRule when the execution reached a
// synthesis hole whose current action is the wildcard (default) action. The
// model checker treats the branch as unexplorable and records that a wildcard
// was encountered; the final verdict for such a run can be at best "unknown".
var ErrWildcard = errors.New("ts: wildcard hole encountered")

// State is an explicit protocol state.
//
// Key and AppendKey must be canonical encodings: two states are identical
// if and only if their keys are equal. Models with symmetric agents
// additionally implement Permutable so the checker can canonicalize keys up
// to agent permutation.
type State interface {
	// AppendKey is the binary encoding the checker fingerprints (see
	// KeyAppender): every state has one.
	KeyAppender
	// Key returns the canonical human-readable encoding of the state, what
	// traces and tools show. It must be deterministic and injective on the
	// reachable state space.
	Key() string
	// Clone returns a copy of the same concrete type that owns all of its
	// mutable storage: nothing written to the copy — by a rule action,
	// CopyFrom or PermuteInto — may be visible through the receiver.
	Clone() State
}

// KeyAppender is the binary half of a state's keying, part of every State.
// AppendKey appends a compact encoding of the state to dst and returns the
// extended buffer, exactly like strconv.AppendInt grows its destination: the
// caller owns the buffer and reuses it across states, so the exploration hot
// path fingerprints states with zero per-state allocations (see
// statespace.OfBytes). There is no string fallback: the checker, the
// canonicalizer and the checkpoint writer key every state by these bytes.
//
// The encoding must satisfy the same contract as Key, restated in binary:
// deterministic, and injective wherever Key is — two states with distinct
// Key() strings must produce distinct appended byte sequences. (Equality
// the other way — equal keys yielding equal encodings — holds for every
// model in this repo; self-delimiting encodings are in fact injective on
// raw field values even where a delimiter-based Key string would collide.)
// The appended bytes need not be printable and need not resemble Key.
type KeyAppender interface {
	// AppendKey appends the state's binary encoding to dst and returns the
	// extended slice. It must not retain dst and must not allocate beyond
	// growing dst.
	AppendKey(dst []byte) []byte
}

// KeyDecoder is optionally implemented by systems whose AppendKey
// encodings can be decoded back into states. It is the inverse the
// checkpoint/resume machinery needs: a BFS frontier is persisted as the
// concatenation of its states' AppendKey encodings, and DecodeKey
// rebuilds the states on resume. Because AppendKey encodings are
// self-delimiting, DecodeKey consumes exactly one state from the front of
// data and returns the remainder.
//
// The round-trip contract: for every reachable state s,
// DecodeKey(s.AppendKey(nil)) yields a state whose AppendKey re-encodes
// to the identical bytes (and whose Key equals s.Key). Malformed input
// must return an error — never panic — since checkpoint files cross a
// process boundary.
type KeyDecoder interface {
	// DecodeKey decodes one state from the front of data and returns the
	// state and the unconsumed remainder.
	DecodeKey(data []byte) (State, []byte, error)
}

// Permutable is implemented by states containing scalarset-like symmetric
// agent identifiers (e.g. cache IDs). The model checker uses it for
// symmetry reduction: the canonical representative of a state is the
// renaming with the lexicographically smallest AppendKey encoding. The
// canonicalizer keeps one Clone per worker as scratch and renames into it,
// so trying a permutation allocates nothing. Which permutations it has to
// try to find the minimum is narrowed by the optional AgentComparer;
// without it, it tries all NumAgents()!.
type Permutable interface {
	State
	// NumAgents reports the size of the symmetric scalarset.
	NumAgents() int
	// PermuteInto overwrites dst with the receiver under the renaming of
	// every agent index i to perm[i], a bijection on [0, NumAgents()). dst
	// is a Clone of a state of the same system (same scalarset size and
	// shape) and is never the receiver; its previous contents are fully
	// overwritten, the receiver is not modified. Implementations reuse
	// dst's storage and must not allocate beyond amortized growth of dst's
	// internal slices.
	PermuteInto(dst State, perm []int)
}

// AgentComparer is optionally implemented by Permutable states to tell the
// symmetry canonicalizer which permutations can possibly produce the
// smallest encoding. CompareAgents orders the agents of the receiver by
// their agent-local data; the
// canonicalizer sorts the agents by it and tries only the arrangements
// that keep them in non-decreasing order — the agents that compare equal
// (a tie class) are the only ones it still has to try in every order, so
// the N! encodings per state shrink to the product of the tie classes'
// factorials. A state without the capability is one tie class of N.
//
// The contract has three parts, all about the receiver's AppendKey:
//
//   - Preorder: CompareAgents is a total preorder on [0, NumAgents()) —
//     negative, zero or positive like bytes.Compare, antisymmetric in its
//     sign and transitive, ties included.
//   - Equivariance: it reads only data that moves with the agent, so
//     renaming agents renames the answer. For every permutation perm,
//     the state PermuteInto(·, perm) writes answers
//     CompareAgents(perm[i], perm[j]) with the sign of CompareAgents(i, j). Fields that hold agent identifiers (an owner,
//     a pid-typed cell) change value under renaming and must not be read.
//   - Leading block: over all N! permutations, the lexicographically
//     smallest AppendKey encoding is attained by one that leaves the
//     agents in non-decreasing CompareAgents order (slot k holds a k-th
//     smallest agent). This is what keeps fingerprints bit-identical to
//     trying every permutation. It holds by construction when every byte
//     of the encoding that precedes the last compared one is either
//     permutation-invariant or part of a compared fixed-width per-agent
//     record emitted in slot order, and CompareAgents compares exactly
//     those records, bytewise, in encoding order: row-major (one record
//     per agent: compare the records) or column-major (one array per
//     field: compare field by field in layout order). Anything encoded
//     after that block — agent identifiers, message multisets — is then
//     decided among the tied arrangements by comparing full encodings.
//
// Comparing fewer leading fields than the encoding has is always allowed
// (coarser tie classes, more permutations tried, same minimum); comparing
// a field that an agent-identifier byte precedes is not.
type AgentComparer interface {
	// CompareAgents compares agents i and j of the receiver.
	CompareAgents(i, j int) int
}

// Recycler is optionally implemented by systems that pool successor
// storage: Recycle accepts a state the caller owns outright and no longer
// needs, and the system's FireRule draws its clones from the returned
// storage (overwriting a recycled state in place) instead of allocating
// fresh deep copies.
//
// The caller contract: s must have been obtained from this system's
// Initial or FireRule, and nothing — trace node, frontier entry, scratch, a
// rule record yet to be fired — may still reference it. After Recycle the
// state's storage may be overwritten at any time. Recycle must be safe for
// concurrent use (a multi-worker run recycles from every worker). Pool is
// the implementation every pooling model in this repo uses.
type Recycler interface {
	Recycle(s State)
}

// Rule is one enabled transition of a state, as data: what a System's
// AppendRules appends per enabled rule. It is fixed-width and pointer-free,
// so a worker's rule buffer is recycled across expansions without the
// garbage collector ever looking inside. The fields
// mean what the system that appended the record says they mean; the kernel
// only hands records back to that system's FireRule and RuleName.
//
// A Rule is meaningful only together with the state it was enumerated from,
// and only while that state is unmodified: Msg in particular indexes into
// the state (a message's position in the network, an alternative's
// position in an enabled set), so firing a record against any other state —
// or the same state after it was mutated or recycled — is a bug.
type Rule struct {
	// ID selects the rule: the case FireRule switches on.
	ID uint16
	// Agent is the agent (process, cache, ruleset instance) the rule is
	// instantiated for.
	Agent int16
	// Msg is the rule's remaining parameter: the index of the message it
	// delivers, or of the alternative it takes.
	Msg int32
	// Name identifies the transition's name to RuleName, typically as an
	// index into a name table built once per system.
	Name uint32
}

// Env is the execution environment a transition fires in. It is the bridge
// between the model and the synthesis engine: models call Choose at each
// hole. A nil *Env (plain model checking of a complete model) makes Choose
// panic, which turns an accidentally-left hole into a loud failure. An Env
// also tallies the successor pool's traffic (Pool.Get), so firings that run
// concurrently each need their own: Fork one per goroutine.
type Env struct {
	// chooser is installed by the synthesis engine.
	chooser Chooser
	// hits and misses tally the Pool.Get calls made with this environment:
	// successors served from recycled storage, and clones built fresh.
	hits, misses uint64
}

// Chooser resolves synthesis holes. Implementations live in internal/core.
type Chooser interface {
	// Choose resolves the hole with the given name to the index of one of its
	// actions. names lists the human-readable action names; its length fixes
	// the hole's arity on first discovery. Choose returns ErrWildcard when
	// the hole is currently assigned the wildcard action.
	Choose(hole string, actions []string) (int, error)
}

// NewEnv wraps a Chooser for use by firing transitions. A nil chooser yields
// an environment on which Choose panics (complete models never call it).
func NewEnv(c Chooser) *Env { return &Env{chooser: c} }

// Fork returns an environment with e's chooser and no pool traffic tallied:
// one per exploration worker, so that each tallies its own. The fork of a
// nil environment has no chooser.
func (e *Env) Fork() Env {
	if e == nil {
		return Env{}
	}
	return Env{chooser: e.chooser}
}

// PoolTraffic reports the Pool.Get hits and misses tallied on e since it
// was made or forked.
func (e *Env) PoolTraffic() (hits, misses uint64) { return e.hits, e.misses }

// Choose resolves the named hole to an action index in [0, len(actions)).
// It returns ErrWildcard when the synthesizer has the hole at its wildcard
// default. Calling Choose on an environment without a chooser panics: a
// complete model must not contain holes.
func (e *Env) Choose(hole string, actions []string) (int, error) {
	if e == nil || e.chooser == nil {
		panic("ts: Choose(" + hole + ") called while model-checking a complete model (no synthesis chooser installed)")
	}
	return e.chooser.Choose(hole, actions)
}

// Transition is an enabled transition as a closure: the form in which the
// msi model hands the repository benchmark's layer walk (bench/walk.go) its
// transitions, and nothing else. Fire computes the successor as FireRule
// would.
type Transition struct {
	// Name identifies the transition for traces, e.g. "cache0: recv Data in IS_D".
	Name string
	// Fire computes the successor state in the given environment.
	Fire func(env *Env) (State, error)
}

// Invariant is a safety property checked on every reachable state.
type Invariant struct {
	Name string
	// Holds reports whether the state satisfies the invariant.
	Holds func(s State) bool
}

// ReachGoal is an "eventually somewhere" property over the reachable state
// space: after exploration finishes without a safety violation, every goal's
// Holds must have been true for at least one visited state. The paper uses
// this for "all stable states must be visited at least once", which weeds
// out degenerate-but-safe protocols.
type ReachGoal struct {
	Name string
	// Holds reports whether the state witnesses the goal.
	Holds func(s State) bool
}

// System is a complete description of a finite-state transition system.
// It enumerates the transitions enabled in a state as Rule records and
// fires them through one switch, so exploring a state allocates no closure
// per enabled transition (see "Successor lifecycle" in the package
// comment). Guards are evaluated eagerly by AppendRules; actions run lazily
// in FireRule.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Initial returns the initial states. Must be non-empty.
	Initial() []State
	// AppendRules appends one record per transition enabled in s to dst and
	// returns the extended slice. It must not retain dst or s, and
	// allocates nothing beyond growing dst.
	AppendRules(dst []Rule, s State) []Rule
	// FireRule computes the successor of src under r, one of the records
	// AppendRules appended for src. src is not modified; the successor is
	// owned by the caller. It returns ErrWildcard (possibly wrapped) when
	// the rule reaches an unassigned hole.
	FireRule(src State, r Rule, env *Env) (State, error)
	// RuleName returns the transition's name for traces, e.g. "cache0: recv
	// Data in IS_D"; names are unique per system. The kernel asks only when
	// something shows the name — a trace node, an error message, a fairness
	// requirement's Taken — so it should be a table lookup, and may format
	// only for names that cannot be tabled.
	RuleName(r Rule) string
	// Invariants returns the safety properties of the system.
	Invariants() []Invariant
}

// QuiescentReporter is optionally implemented by systems to refine deadlock
// detection: a state with no successors is a deadlock only if it is not
// quiescent. Systems that always have some enabled transition (e.g. ones
// that can always issue a new request) need not implement this.
type QuiescentReporter interface {
	Quiescent(s State) bool
}

// GoalReporter is optionally implemented by systems that carry reachability
// goals (see ReachGoal).
type GoalReporter interface {
	Goals() []ReachGoal
}

// LivenessKind selects the temporal shape of a LivenessGoal.
type LivenessKind int

const (
	// EventuallyAlways is "FG P": along every (fair) infinite execution the
	// system eventually reaches a suffix on which P holds forever. Its
	// violations are executions where ¬P recurs forever — e.g. a protocol
	// that keeps bouncing out of its stable states.
	EventuallyAlways LivenessKind = iota
	// LeadsTo is "G(P → F Q)": along every (fair) infinite execution, each
	// state satisfying P is eventually followed by a state satisfying Q —
	// "request leads to grant". With P ≡ true this degenerates to "GF Q"
	// (Q recurs forever), the shape of "every process holds the token
	// infinitely often".
	LeadsTo
)

// String returns the kind name.
func (k LivenessKind) String() string {
	switch k {
	case EventuallyAlways:
		return "eventually-always"
	case LeadsTo:
		return "leads-to"
	default:
		return "LivenessKind(?)"
	}
}

// LivenessGoal is a temporal property over infinite executions, checked by
// the model checker's nested-DFS driver (mc.Options.Liveness): a violation
// is a lasso — a reachable cycle along which the property's negation holds
// forever. Unlike ReachGoal (a property of the reachable set), a
// LivenessGoal constrains every execution, so its counterexamples are
// stem-plus-cycle traces rather than simple paths.
type LivenessGoal struct {
	Name string
	// Kind selects the temporal shape; see LivenessKind.
	Kind LivenessKind
	// P is the kind's primary predicate (the P of FG P or G(P → F Q)).
	P func(s State) bool
	// Q is the LeadsTo target predicate; ignored by EventuallyAlways.
	Q func(s State) bool
	// Fair restricts the check to weakly fair executions: cycles on which a
	// declared fairness requirement (see FairnessReporter) is continuously
	// enabled but never taken are not counterexamples. Ignored when the
	// system declares no fairness requirements.
	Fair bool
}

// LivenessReporter is optionally implemented by systems that carry liveness
// goals. The model checker consults it only under mc.Options.Liveness.
type LivenessReporter interface {
	LivenessGoals() []LivenessGoal
}

// Fairness is one weak-fairness requirement: an execution is weakly fair to
// it when, infinitely often, the requirement is either not Enabled or was
// just Taken — equivalently, it cannot stay continuously enabled while
// being ignored forever. A requirement usually stands for one process
// ("process i gets scheduled"), with Enabled true when the process has some
// enabled transition and Taken matching the process's transition names.
type Fairness struct {
	Name string
	// Enabled reports whether the requirement is enabled in s.
	Enabled func(s State) bool
	// Taken reports whether firing the named transition discharges the
	// requirement (transition names are unique per system; see
	// System.RuleName).
	Taken func(rule string) bool
}

// FairnessReporter is optionally implemented by systems that declare weak-
// fairness requirements for their Fair liveness goals (see LivenessGoal).
type FairnessReporter interface {
	WeakFairness() []Fairness
}
