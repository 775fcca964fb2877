// Package dsl is a lightweight, Murphi-flavoured frontend over internal/ts
// — the "more ergonomic frontend DSL" the paper lists as future work.
//
// Instead of implementing the five-method ts.System interface by hand, a
// model declares guarded rules, rulesets (rules replicated over a parameter
// range, like Murphi's `ruleset i: cid do … end`), invariants, reach goals,
// liveness goals (EventuallyAlways / LeadsTo, with Fair weak-fairness
// declarations) on a Builder. Rule actions mutate a typed clone of the state in place — the
// builder handles cloning, so the usual "Clone then cast then mutate then
// return" boilerplate disappears:
//
//	b := dsl.NewBuilder[*myState]("my-system", initial)
//	b.RuleSet(n, "p%d: request", // one rule per process
//	    func(s *myState, i int) bool { return s.PC[i] == Idle },
//	    func(s *myState, i int, env *ts.Env) error { s.PC[i] = Want; return nil })
//	b.Invariant("mutex", func(s *myState) bool { … })
//	sys := b.System()
//
// Holes work exactly as in raw ts models: call env.Choose inside an action
// and return its error (wildcard aborts propagate through).
//
// The builder never wraps states — the S values a model mutates are exactly
// the ts.States the checker sees — so every optional state capability passes
// straight through: a state type that implements ts.KeyAppender keeps the
// allocation-free binary fingerprinting path, and one that implements
// ts.Permutable keeps symmetry reduction, with no declaration on the Builder
// (internal/tokenring's ring implements KeyAppender this way). What the
// builder relies on is the ts ownership rule: S.Clone returns an S that
// shares no mutable storage with its receiver.
//
// The successor lifecycle passes through the same way: when S implements
// ts.StateCopier, rule actions fire on clones drawn from a ts.Pool of
// recycled states, which Recycle feeds and PoolStats reports; when it does
// not, Recycle quietly drops states and every clone is fresh.
//
// A Builder's rules are data — a guard, an action and an instance count each
// — so built systems implement ts.RuleSystem directly: enumeration appends
// one ts.Rule per enabled instance and firing indexes the rule table, with
// no closure per transition. Rule and RuleSet names are formatted once at
// registration; a Choice name is formatted when it is asked for (the
// alternative set is data-dependent and unbounded).
package dsl

import (
	"fmt"

	"verc3/internal/ts"
)

// Mutable is the state contract for the builder: a ts.State whose Clone
// returns the same concrete type (enforced at rule-firing time).
type Mutable interface {
	ts.State
}

// Builder accumulates rules and properties, then freezes into a ts.System.
type Builder[S Mutable] struct {
	name    string
	initial []ts.State
	rules   []rule[S]
	names   []string // every Rule and RuleSet instance name; ts.Rule.Name indexes it
	invs    []ts.Invariant
	goals   []ts.ReachGoal
	live    []ts.LivenessGoal
	fair    []ts.Fairness
	quiet   func(S) bool

	// Successor pool, used only when S implements ts.StateCopier (poolable).
	poolable bool
	pool     ts.Pool[S]
}

// rule is one registered guarded command and its instances: a Rule has one,
// a RuleSet one per parameter in [0, n), a Choice one per alternative
// enabled(s) lists. A ts.Rule names a rule by its index in Builder.rules
// (ID) and the instance (Msg).
type rule[S Mutable] struct {
	n      int
	guard  func(S, int) bool // nil: always enabled
	action func(S, int, *ts.Env) error
	// nameOff is where the n instance names start in Builder.names.
	nameOff int
	// enabled and pattern make the rule a Choice: its instances are data,
	// named by formatting pattern when asked.
	enabled func(S) []int
	pattern string
}

// NewBuilder starts a system with one or more initial states.
func NewBuilder[S Mutable](name string, initial ...S) *Builder[S] {
	if len(initial) == 0 {
		panic("dsl: need at least one initial state")
	}
	b := &Builder[S]{name: name}
	var zero S
	_, b.poolable = any(zero).(ts.StateCopier)
	for _, s := range initial {
		b.initial = append(b.initial, s)
	}
	return b
}

// clone copies s for a firing rule, reusing recycled storage when S supports
// the CopyFrom reuse path, and asserts the concrete type survives Clone.
func (b *Builder[S]) clone(s S) S {
	if b.poolable {
		if ns, ok := b.pool.Get(); ok {
			any(ns).(ts.StateCopier).CopyFrom(s)
			return ns
		}
	}
	c, ok := s.Clone().(S)
	if !ok {
		panic(fmt.Sprintf("dsl: %T.Clone() did not return %T", s, s))
	}
	return c
}

// recycle hands a dead state — an aborted branch's clone, or one the checker
// returns — to the pool; a no-op unless S implements ts.StateCopier.
func (b *Builder[S]) recycle(s ts.State) {
	if b.poolable {
		b.pool.Recycle(s)
	}
}

// Rule adds a guarded command: when guard(s) holds, the action may fire on a
// clone of s. A nil guard is always enabled.
func (b *Builder[S]) Rule(name string, guard func(S) bool, action func(S, *ts.Env) error) *Builder[S] {
	r := rule[S]{n: 1, nameOff: len(b.names), action: func(s S, _ int, env *ts.Env) error { return action(s, env) }}
	if guard != nil {
		r.guard = func(s S, _ int) bool { return guard(s) }
	}
	b.names = append(b.names, name)
	b.rules = append(b.rules, r)
	return b
}

// RuleSet adds one rule instance per parameter i in [0, n) — Murphi's
// ruleset. The name is a fmt pattern receiving i; instance names are
// formatted once here, not per expansion.
func (b *Builder[S]) RuleSet(n int, name string, guard func(S, int) bool, action func(S, int, *ts.Env) error) *Builder[S] {
	b.rules = append(b.rules, rule[S]{n: n, nameOff: len(b.names), guard: guard, action: action})
	for i := 0; i < n; i++ {
		b.names = append(b.names, fmt.Sprintf(name, i))
	}
	return b
}

// Choice adds a rule that fires once per alternative in [0, k) — a
// nondeterministic environment action (e.g. "deliver any pending message").
// enabled(s) returns the live alternatives; name is a fmt pattern receiving
// the alternative.
func (b *Builder[S]) Choice(name string, enabled func(S) []int, action func(S, int, *ts.Env) error) *Builder[S] {
	b.rules = append(b.rules, rule[S]{enabled: enabled, pattern: name, action: action})
	return b
}

// Invariant adds a safety property.
func (b *Builder[S]) Invariant(name string, holds func(S) bool) *Builder[S] {
	b.invs = append(b.invs, ts.Invariant{Name: name, Holds: func(s ts.State) bool { return holds(s.(S)) }})
	return b
}

// Goal adds a reachability goal ("some reachable state satisfies this").
func (b *Builder[S]) Goal(name string, holds func(S) bool) *Builder[S] {
	b.goals = append(b.goals, ts.ReachGoal{Name: name, Holds: func(s ts.State) bool { return holds(s.(S)) }})
	return b
}

// EventuallyAlways adds the liveness goal FG p — "from some point on, p
// holds forever" — checked by the nested-DFS driver under mc.Options
// Liveness. With fair set, only weakly fair executions (see Fair) count as
// counterexamples.
func (b *Builder[S]) EventuallyAlways(name string, fair bool, p func(S) bool) *Builder[S] {
	b.live = append(b.live, ts.LivenessGoal{
		Name: name,
		Kind: ts.EventuallyAlways,
		Fair: fair,
		P:    func(s ts.State) bool { return p(s.(S)) },
	})
	return b
}

// LeadsTo adds the liveness goal G(p → F q) — "whenever p holds, q
// eventually holds" — checked by the nested-DFS driver. With fair set, only
// weakly fair executions count as counterexamples.
func (b *Builder[S]) LeadsTo(name string, fair bool, p, q func(S) bool) *Builder[S] {
	b.live = append(b.live, ts.LivenessGoal{
		Name: name,
		Kind: ts.LeadsTo,
		Fair: fair,
		P:    func(s ts.State) bool { return p(s.(S)) },
		Q:    func(s ts.State) bool { return q(s.(S)) },
	})
	return b
}

// Fair declares a weak-fairness requirement: executions that keep the
// requirement continuously enabled without ever taking one of its
// transitions are excluded from Fair liveness goals. taken receives a fired
// transition's name.
func (b *Builder[S]) Fair(name string, enabled func(S) bool, taken func(rule string) bool) *Builder[S] {
	b.fair = append(b.fair, ts.Fairness{
		Name:    name,
		Enabled: func(s ts.State) bool { return enabled(s.(S)) },
		Taken:   taken,
	})
	return b
}

// Quiescent marks states where having no enabled rule is acceptable rather
// than a deadlock.
func (b *Builder[S]) Quiescent(pred func(S) bool) *Builder[S] {
	b.quiet = pred
	return b
}

// System freezes the builder into a ts.System (safe for concurrent use; the
// builder must not be modified afterwards).
func (b *Builder[S]) System() ts.System {
	return &built[S]{b: b}
}

type built[S Mutable] struct{ b *Builder[S] }

// Name implements ts.System.
func (x *built[S]) Name() string { return x.b.name }

// Initial implements ts.System. It clones the builder's canonical initial
// states: a checker may Recycle an expanded initial state (traceless mode),
// and handing out the builder's own copies would let pooled reuse mutate
// them between runs.
func (x *built[S]) Initial() []ts.State {
	out := make([]ts.State, len(x.b.initial))
	for i, s := range x.b.initial {
		out[i] = s.Clone()
	}
	return out
}

// Transitions implements ts.System: the minimal, closure-valued API, through
// the ts adapter.
func (x *built[S]) Transitions(s ts.State) []ts.Transition {
	return ts.AppendTransitions(x, nil, s)
}

// AppendRules implements ts.RuleSystem: the rules in registration order,
// each rule's enabled instances in instance order.
func (x *built[S]) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	st := s.(S)
	for ri := range x.b.rules {
		r := &x.b.rules[ri]
		if r.enabled != nil {
			for _, alt := range r.enabled(st) {
				dst = append(dst, ts.Rule{ID: uint16(ri), Msg: int32(alt)})
			}
			continue
		}
		for i := 0; i < r.n; i++ {
			if r.guard == nil || r.guard(st, i) {
				dst = append(dst, ts.Rule{ID: uint16(ri), Msg: int32(i), Name: uint32(r.nameOff + i)})
			}
		}
	}
	return dst
}

// RuleName implements ts.RuleSystem.
func (x *built[S]) RuleName(r ts.Rule) string {
	if ru := &x.b.rules[r.ID]; ru.enabled != nil {
		return fmt.Sprintf(ru.pattern, int(r.Msg))
	}
	return x.b.names[r.Name]
}

// FireRule implements ts.RuleSystem: the rule's action runs on a clone of
// src, which goes straight back to the pool when the action aborts.
func (x *built[S]) FireRule(src ts.State, r ts.Rule, env *ts.Env) (ts.State, error) {
	ns := x.b.clone(src.(S))
	if err := x.b.rules[r.ID].action(ns, int(r.Msg), env); err != nil {
		x.b.recycle(ns)
		return nil, err
	}
	return ns, nil
}

// Recycle implements ts.Recycler: a no-op unless S implements
// ts.StateCopier, in which case s seeds a future rule-firing clone.
func (x *built[S]) Recycle(s ts.State) { x.b.recycle(s) }

// PoolStats implements ts.PoolReporter.
func (x *built[S]) PoolStats() (hits, misses uint64) { return x.b.pool.PoolStats() }

// Invariants implements ts.System.
func (x *built[S]) Invariants() []ts.Invariant { return x.b.invs }

// Goals implements ts.GoalReporter.
func (x *built[S]) Goals() []ts.ReachGoal { return x.b.goals }

// LivenessGoals implements ts.LivenessReporter.
func (x *built[S]) LivenessGoals() []ts.LivenessGoal { return x.b.live }

// WeakFairness implements ts.FairnessReporter.
func (x *built[S]) WeakFairness() []ts.Fairness { return x.b.fair }

// Quiescent implements ts.QuiescentReporter.
func (x *built[S]) Quiescent(s ts.State) bool {
	if x.b.quiet == nil {
		return false
	}
	return x.b.quiet(s.(S))
}
