package spec

import (
	"fmt"
	"strings"

	"verc3/internal/ts"
)

// stateLike is what a compiled system runs over: *specState, or *symState
// for a symmetric spec, so the checker's capability probing sees
// ts.Permutable exactly when the spec declares symmetry.
type stateLike interface {
	ts.State
	specCore
}

// System instantiates the model as a fresh ts.System with its own successor
// pool.
func (m *Model) System() ts.System {
	if m.lay.symmetric {
		return newSystem(m, &symState{*m.lay.newState()})
	}
	return newSystem(m, m.lay.newState())
}

// instance is one rule instance: a rule, the value its i takes (-1 for a
// rule that is not per-process), and the record AppendRules appends for it
// — the rule's index as ID, the process as Msg, and the instance's index in
// system.insts and system.names as Name.
type instance struct {
	guard  valFn // nil = always enabled
	action []stmtFn
	i      int64
	rec    ts.Rule
}

// system is a compiled model as a ts.System over state type S. Every
// instance name and property is built once, when the system is; firing
// draws its copy from the embedded pool, which makes the system a
// ts.Recycler.
type system[S stateLike] struct {
	ts.Pool[S]
	name  string
	init  S
	insts []instance
	names []string
	invs  []ts.Invariant
	goals []ts.ReachGoal
	live  []ts.LivenessGoal
	fair  []ts.Fairness
	quiet valFn
}

func newSystem[S stateLike](m *Model, init S) *system[S] {
	x := &system[S]{name: m.lay.name, init: init, quiet: m.quiet}
	pred := func(fn valFn, i int64) func(ts.State) bool {
		return func(s ts.State) bool { return fn(rtenv{s: s.(S).core(), i: i}) != 0 }
	}
	for ri := range m.rules {
		r := &m.rules[ri]
		m.each(r.perProcess, r.name, func(name string, i int64) {
			rec := ts.Rule{ID: uint16(ri), Msg: int32(max(i, 0)), Name: uint32(len(x.insts))}
			x.insts = append(x.insts, instance{guard: r.guard, action: r.action, i: i, rec: rec})
			x.names = append(x.names, name)
		})
	}
	for _, p := range m.invs {
		m.each(p.perProcess, p.name, func(name string, i int64) {
			x.invs = append(x.invs, ts.Invariant{Name: name, Holds: pred(p.fn, i)})
		})
	}
	for _, p := range m.goals {
		m.each(p.perProcess, p.name, func(name string, i int64) {
			x.goals = append(x.goals, ts.ReachGoal{Name: name, Holds: pred(p.fn, i)})
		})
	}
	for _, l := range m.live {
		m.each(l.perProcess, l.name, func(name string, i int64) {
			g := ts.LivenessGoal{Name: name, Kind: l.kind, Fair: l.fair, P: pred(l.p, i)}
			if l.q != nil {
				g.Q = pred(l.q, i)
			}
			x.live = append(x.live, g)
		})
	}
	for _, f := range m.fair {
		m.each(f.perProcess, f.name, func(name string, i int64) {
			prefix := f.prefix
			if strings.Contains(prefix, "%d") {
				prefix = fmt.Sprintf(prefix, i)
			}
			x.fair = append(x.fair, ts.Fairness{
				Name:    name,
				Enabled: pred(f.enabled, i),
				Taken:   func(rule string) bool { return strings.HasPrefix(rule, prefix) },
			})
		})
	}
	return x
}

// each calls f once per instance of a declaration: once per process with
// the name formatted for i, or once with i = -1.
func (m *Model) each(perProcess bool, name string, f func(name string, i int64)) {
	if !perProcess {
		f(name, -1)
		return
	}
	for i := 0; i < m.lay.n; i++ {
		f(fmt.Sprintf(name, i), int64(i))
	}
}

// Name implements ts.System.
func (x *system[S]) Name() string { return x.name }

// Initial implements ts.System. It hands out a fresh clone each call: a
// checker may Recycle an expanded initial state, and pooled reuse must not
// mutate the system's own copy between runs.
func (x *system[S]) Initial() []ts.State { return []ts.State{x.init.Clone()} }

// AppendRules implements ts.System: the enabled instances, in declaration
// order and per-process instances in process order.
func (x *system[S]) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	e := rtenv{s: s.(S).core()}
	for k := range x.insts {
		in := &x.insts[k]
		e.i = in.i
		if in.guard == nil || in.guard(e) != 0 {
			dst = append(dst, in.rec)
		}
	}
	return dst
}

// RuleName implements ts.System.
func (x *system[S]) RuleName(r ts.Rule) string { return x.names[r.Name] }

// FireRule implements ts.System: the instance's action runs on a copy of
// src, which goes straight back to the pool when the action aborts.
func (x *system[S]) FireRule(src ts.State, r ts.Rule, env *ts.Env) (ts.State, error) {
	ns, ok := x.Get(env)
	if ok {
		ns.core().CopyFrom(src)
	} else {
		ns = src.Clone().(S)
	}
	in := &x.insts[r.Name]
	if err := runStmts(in.action, rtenv{s: ns.core(), i: in.i}, env); err != nil {
		x.Recycle(ns)
		return nil, err
	}
	return ns, nil
}

// Invariants implements ts.System.
func (x *system[S]) Invariants() []ts.Invariant { return x.invs }

// Goals implements ts.GoalReporter.
func (x *system[S]) Goals() []ts.ReachGoal { return x.goals }

// LivenessGoals implements ts.LivenessReporter.
func (x *system[S]) LivenessGoals() []ts.LivenessGoal { return x.live }

// WeakFairness implements ts.FairnessReporter.
func (x *system[S]) WeakFairness() []ts.Fairness { return x.fair }

// Quiescent implements ts.QuiescentReporter.
func (x *system[S]) Quiescent(s ts.State) bool {
	return x.quiet != nil && x.quiet(rtenv{s: s.(S).core(), i: -1}) != 0
}
