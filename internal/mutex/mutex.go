// Package mutex is a second, self-contained case study: synthesizing the
// missing actions of Peterson's two-process mutual-exclusion algorithm.
// The paper positions VerC3 as a general library for concurrent-system
// synthesis with distributed protocols as the flagship domain; this package
// demonstrates the same skeleton-plus-action-library workflow on a shared-
// memory concurrent program.
//
// The sketch leaves three actions open:
//
//   - turn-write: on entering the waiting phase, set turn to me or other
//     (Peterson's subtle choice: only "other" preserves mutual exclusion);
//   - exit-flag: on leaving the critical section, clear or keep my flag
//     (keeping it eventually wedges the system: caught by deadlock
//     detection or the returns-to-rest goal);
//   - after-crit: where to go after the critical section, Idle or Crit
//     (hogging the section starves the peer: caught by the
//     returns-to-rest goal).
//
// Exactly one of the 2·2·2 = 8 candidates is correct.
package mutex

import (
	"fmt"
	"strings"

	"verc3/internal/ts"
)

// PC is a process's program counter.
type PC int8

// Program counters.
const (
	Idle    PC = iota // not requesting
	SetTurn           // flag raised; about to write turn
	Wait              // spinning on the entry condition
	Crit              // critical section
)

var pcNames = [...]string{"Idle", "SetTurn", "Wait", "Crit"}

// String returns the program-counter name.
func (p PC) String() string { return pcNames[p] }

// A state that drops one of these loses symmetry reduction or successor
// recycling silently; fail the build instead.
var (
	_ ts.Permutable    = (*State)(nil)
	_ ts.AgentComparer = (*State)(nil)
	_ ts.KeyAppender   = (*State)(nil)
	_ ts.StateCopier   = (*State)(nil)
)

// State is the global state of the two-process system: a flat value, so
// every copy owns all of it.
type State struct {
	PCs  [2]PC
	Flag [2]bool
	// Turn is the process index with deference priority; None before the
	// first write.
	Turn int8
	// VisitedCrit is a specification ghost: some process has entered the
	// critical section at least once.
	VisitedCrit bool
}

// None marks an unset Turn.
const None = -1

// Key implements ts.State.
func (s *State) Key() string {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("%d%d%d%d%d%d", s.PCs[0], s.PCs[1], b(s.Flag[0]), b(s.Flag[1]), s.Turn+1, b(s.VisitedCrit))
}

// AppendKey implements ts.KeyAppender: the six key digits as six raw
// bytes (Turn stored as Turn+1 exactly like Key, so None encodes as 0).
func (s *State) AppendKey(dst []byte) []byte {
	b := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	return append(dst, byte(s.PCs[0]), byte(s.PCs[1]), b(s.Flag[0]), b(s.Flag[1]), byte(s.Turn+1), b(s.VisitedCrit))
}

// Clone implements ts.State.
func (s *State) Clone() ts.State {
	cp := *s
	return &cp
}

// CopyFrom implements ts.StateCopier.
func (s *State) CopyFrom(src ts.State) { *s = *src.(*State) }

// PermuteInto implements ts.Permutable: process i is renamed to perm[i] in
// the PC and flag slots and in Turn.
func (s *State) PermuteInto(dst ts.State, perm []int) {
	d := dst.(*State)
	d.VisitedCrit = s.VisitedCrit
	for i := 0; i < 2; i++ {
		d.PCs[perm[i]] = s.PCs[i]
		d.Flag[perm[i]] = s.Flag[i]
	}
	d.Turn = s.Turn
	if s.Turn >= 0 {
		d.Turn = int8(perm[s.Turn])
	}
}

// CompareAgents implements ts.AgentComparer: processes compare by PC, then
// flag. AppendKey is column-major — both PCs, then both flags, and only
// then Turn, the one field that names a process — so the smallest encoding
// has the PCs in order and, where they tie, the flags.
func (s *State) CompareAgents(i, j int) int {
	if s.PCs[i] != s.PCs[j] {
		return int(s.PCs[i]) - int(s.PCs[j])
	}
	switch {
	case s.Flag[i] == s.Flag[j]:
		return 0
	case s.Flag[j]:
		return -1
	}
	return 1
}

// NumAgents implements ts.Permutable.
func (s *State) NumAgents() int { return 2 }

// String renders the state.
func (s *State) String() string {
	return fmt.Sprintf("p0:%s(f=%v) p1:%s(f=%v) turn=%d visited=%v",
		s.PCs[0], s.Flag[0], s.PCs[1], s.Flag[1], s.Turn, s.VisitedCrit)
}

// System implements ts.RuleSystem plus successor pooling (ts.Recycler and
// ts.PoolReporter through the embedded pool). Sketch selects whether the
// three actions are holes (true) or fixed to Peterson's correct choices
// (false).
type System struct {
	ts.Pool[*State]

	Sketch bool
}

// The four rules a process can take — ts.Rule.ID — are numbered by the
// program counter each is taken from.
const (
	ruleRequest = uint16(Idle)
	ruleTurn    = uint16(SetTurn)
	ruleEnter   = uint16(Wait)
	ruleLeave   = uint16(Crit)
)

// ruleNames is indexed by ts.Rule.Name = 2*rule + process.
var ruleNames = [...]string{
	"p0: request (flag up)", "p1: request (flag up)",
	"p0: write turn", "p1: write turn",
	"p0: enter critical section", "p1: enter critical section",
	"p0: leave critical section", "p1: leave critical section",
}

// succ returns a successor equal to st, in recycled storage when the pool
// has any.
func (sys *System) succ(st *State) *State {
	if ns, ok := sys.Get(); ok {
		*ns = *st
		return ns
	}
	cp := *st
	return &cp
}

// New returns the mutex system; sketch leaves the three actions as holes.
func New(sketch bool) *System { return &System{Sketch: sketch} }

// Name implements ts.System.
func (sys *System) Name() string {
	if sys.Sketch {
		return "peterson-sketch"
	}
	return "peterson"
}

// Initial implements ts.System.
func (sys *System) Initial() []ts.State {
	return []ts.State{&State{Turn: None}}
}

// Hole action libraries.
var (
	turnActions  = []string{"other", "me"}
	exitActions  = []string{"clear", "keep"}
	afterActions = []string{"Idle", "Crit"}
)

// choose resolves a hole in sketch mode, or returns the fixed correct index.
func (sys *System) choose(env *ts.Env, hole string, acts []string, correct int) (int, error) {
	if !sys.Sketch {
		return correct, nil
	}
	return env.Choose(hole, acts)
}

// Transitions implements ts.System: the minimal, closure-valued API, through
// the ts adapter.
func (sys *System) Transitions(s ts.State) []ts.Transition {
	return ts.AppendTransitions(sys, nil, s)
}

// AppendRules implements ts.RuleSystem: each process offers the rule of its
// program counter, Wait only when its entry condition holds.
func (sys *System) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	st := s.(*State)
	for me := 0; me < 2; me++ {
		id := uint16(st.PCs[me])
		if id == ruleEnter && st.Flag[1-me] && st.Turn != int8(me) {
			continue
		}
		dst = append(dst, ts.Rule{ID: id, Agent: int16(me), Name: uint32(2*int(id) + me)})
	}
	return dst
}

// RuleName implements ts.RuleSystem.
func (sys *System) RuleName(r ts.Rule) string { return ruleNames[r.Name] }

// FireRule implements ts.RuleSystem. Holes are resolved before cloning, so
// an aborted (wildcard) branch never touches the pool.
func (sys *System) FireRule(src ts.State, r ts.Rule, env *ts.Env) (ts.State, error) {
	st := src.(*State)
	me := int(r.Agent)
	switch r.ID {
	case ruleRequest:
		ns := sys.succ(st)
		ns.Flag[me] = true
		ns.PCs[me] = SetTurn
		return ns, nil
	case ruleTurn:
		a, err := sys.choose(env, "turn-write", turnActions, 0)
		if err != nil {
			return nil, err
		}
		ns := sys.succ(st)
		if a == 0 {
			ns.Turn = int8(1 - me)
		} else {
			ns.Turn = int8(me)
		}
		ns.PCs[me] = Wait
		return ns, nil
	case ruleEnter:
		ns := sys.succ(st)
		ns.PCs[me] = Crit
		ns.VisitedCrit = true
		return ns, nil
	default: // ruleLeave
		ef, err := sys.choose(env, "exit-flag", exitActions, 0)
		if err != nil {
			return nil, err
		}
		ac, err := sys.choose(env, "after-crit", afterActions, 0)
		if err != nil {
			return nil, err
		}
		ns := sys.succ(st)
		if ef == 0 {
			ns.Flag[me] = false
		}
		if ac == 0 {
			ns.PCs[me] = Idle
		} else {
			ns.PCs[me] = Crit
		}
		return ns, nil
	}
}

// Invariants implements ts.System: mutual exclusion.
func (sys *System) Invariants() []ts.Invariant {
	return []ts.Invariant{{
		Name: "mutual-exclusion",
		Holds: func(s ts.State) bool {
			st := s.(*State)
			return !(st.PCs[0] == Crit && st.PCs[1] == Crit)
		},
	}}
}

// Goals implements ts.GoalReporter: the critical section is actually used,
// and the system can return to rest afterwards (both Idle, flags down) —
// the analogue of the paper's "all stable states must be visited" property,
// rejecting safe-but-degenerate completions.
func (sys *System) Goals() []ts.ReachGoal {
	return []ts.ReachGoal{
		{Name: "some-process-enters-crit", Holds: func(s ts.State) bool {
			return s.(*State).VisitedCrit
		}},
		{Name: "returns-to-rest", Holds: func(s ts.State) bool {
			st := s.(*State)
			return st.VisitedCrit && st.PCs[0] == Idle && st.PCs[1] == Idle && !st.Flag[0] && !st.Flag[1]
		}},
	}
}

// LivenessGoals implements ts.LivenessReporter: starvation freedom. A
// process that has raised its flag (SetTurn or Wait) eventually enters the
// critical section. Peterson's turn-write makes this hold — a looping
// contender hands the turn to the waiter and then self-blocks — so the
// goals pass under weak fairness (and, for this algorithm, even without
// it: the contender's self-block leaves the waiter's step as the only
// enabled transition, so no infinite run avoids it).
func (sys *System) LivenessGoals() []ts.LivenessGoal {
	goals := make([]ts.LivenessGoal, 0, 2)
	for me := 0; me < 2; me++ {
		me := me
		goals = append(goals, ts.LivenessGoal{
			Name: fmt.Sprintf("p%d-requests-leads-to-crit", me),
			Kind: ts.LeadsTo,
			Fair: true,
			P: func(s ts.State) bool {
				pc := s.(*State).PCs[me]
				return pc == SetTurn || pc == Wait
			},
			Q: func(s ts.State) bool { return s.(*State).PCs[me] == Crit },
		})
	}
	return goals
}

// WeakFairness implements ts.FairnessReporter: per-process scheduling
// fairness — a process with an enabled step is eventually scheduled. A
// process always has an enabled step except at Wait with the entry
// condition false.
func (sys *System) WeakFairness() []ts.Fairness {
	reqs := make([]ts.Fairness, 0, 2)
	for me := 0; me < 2; me++ {
		me := me
		prefix := fmt.Sprintf("p%d:", me)
		reqs = append(reqs, ts.Fairness{
			Name: fmt.Sprintf("p%d-scheduled", me),
			Enabled: func(s ts.State) bool {
				st := s.(*State)
				return st.PCs[me] != Wait || !st.Flag[1-me] || st.Turn == int8(me)
			},
			Taken: func(rule string) bool { return strings.HasPrefix(rule, prefix) },
		})
	}
	return reqs
}
