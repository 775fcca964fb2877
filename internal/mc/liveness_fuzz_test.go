package mc_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
)

// fgraph is a fuzz-decoded directed graph over at most 6 nodes, with a
// liveness goal read from the same bytes. adj[i] is node i's successor
// bitmask; pMask/qMask are the predicate node sets.
type fgraph struct {
	n          int
	adj        [6]byte
	pMask      byte
	qMask      byte
	leadsTo    bool
	terminalOK bool
}

// readFGraph reads a graph from fuzz bytes: node count, adjacency rows,
// predicate masks, goal kind. Returns false when data is too short.
func readFGraph(data []byte) (fgraph, bool) {
	var g fgraph
	if len(data) < 1 {
		return g, false
	}
	g.n = 2 + int(data[0]%5) // 2..6 nodes
	if len(data) < g.n+4 {
		return g, false
	}
	mask := byte(1<<g.n - 1)
	for i := 0; i < g.n; i++ {
		g.adj[i] = data[1+i] & mask
	}
	g.pMask = data[1+g.n] & mask
	g.qMask = data[2+g.n] & mask
	g.leadsTo = data[3+g.n]&1 == 1
	return g, true
}

// system compiles the graph to a spec over one variable v, the node: one
// rule per edge, every state quiescent (terminal nodes model finite runs,
// not deadlocks), and the decoded liveness goal. No fairness — the oracle
// covers raw cycle existence.
func (g fgraph) system(t testing.TB) ts.System {
	lo, hi := 0, g.n-1
	s := &spec.Spec{
		Format:    spec.FormatV1,
		Name:      "fuzz-graph",
		Vars:      []spec.VarSpec{{Name: "v", Type: "int", Min: &lo, Max: &hi}},
		Quiescent: "true",
	}
	for i := 0; i < g.n; i++ {
		for j := 0; j < g.n; j++ {
			if g.adj[i]&(1<<j) != 0 {
				s.Rules = append(s.Rules, spec.RuleSpec{
					Name:   fmt.Sprintf("e%d-%d", i, j),
					Guard:  fmt.Sprintf("v == %d", i),
					Action: []spec.Stmt{{Set: fmt.Sprintf("v = %d", j)}},
				})
			}
		}
	}
	if len(s.Rules) == 0 {
		// A spec needs a rule; this one is never enabled.
		s.Rules = []spec.RuleSpec{{Name: "no-edges", Guard: "false", Action: []spec.Stmt{{Set: "v = 0"}}}}
	}
	goal := spec.LivenessSpec{Name: "goal", Kind: "eventually_always", P: g.nodeSet(g.pMask)}
	if g.leadsTo {
		goal.Kind, goal.Q = "leads_to", g.nodeSet(g.qMask)
	}
	s.Liveness = []spec.LivenessSpec{goal}
	m, err := spec.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return m.System()
}

// nodeSet is a spec predicate that holds exactly at the nodes in mask.
func (g fgraph) nodeSet(mask byte) string {
	var terms []string
	for i := 0; i < g.n; i++ {
		if mask&(1<<i) != 0 {
			terms = append(terms, fmt.Sprintf("v == %d", i))
		}
	}
	if len(terms) == 0 {
		return "false"
	}
	return strings.Join(terms, " || ")
}

// reach returns the set of nodes reachable from the given seed set through
// edges whose endpoints all satisfy within (both source and target must be
// in within; pass ^0 for no restriction). Seeds outside within are dropped.
func (g fgraph) reach(seeds byte, within byte) byte {
	frontier := seeds & within
	seen := frontier
	for frontier != 0 {
		var next byte
		for i := 0; i < g.n; i++ {
			if frontier&(1<<i) != 0 {
				next |= g.adj[i] & within
			}
		}
		frontier = next &^ seen
		seen |= next
	}
	return seen
}

// onCycle returns the nodes of within-subgraph cycles: node i is on a cycle
// iff it can reach itself through at least one within-restricted edge.
func (g fgraph) onCycle(within byte) byte {
	var out byte
	for i := 0; i < g.n; i++ {
		if within&(1<<i) == 0 {
			continue
		}
		if g.reach(g.adj[i]&within, within)&(1<<i) != 0 {
			out |= 1 << i
		}
	}
	return out
}

// violated is the naive oracle: does an infinite run from node 0 violate
// the goal?
//
//   - EventuallyAlways (FG P) is violated iff a reachable cycle passes
//     through a ¬P node (the run revisits ¬P forever).
//   - LeadsTo (G(P→FQ)) is violated iff some reachable node t with P∧¬Q
//     can reach — moving only through ¬Q nodes, starting at t itself — a
//     cycle of the ¬Q-subgraph (the request at t is never answered).
func (g fgraph) violated() bool {
	all := byte(1<<g.n - 1)
	reachable := g.reach(1<<0, all)
	if !g.leadsTo {
		return g.onCycle(all)&reachable&^g.pMask != 0
	}
	notQ := all &^ g.qMask
	cycles := g.onCycle(notQ)
	for t := 0; t < g.n; t++ {
		bit := byte(1 << t)
		if reachable&bit == 0 || g.pMask&bit == 0 || g.qMask&bit != 0 {
			continue
		}
		if g.reach(bit, notQ)&cycles != 0 {
			return true
		}
	}
	return false
}

// FuzzLassoReplay cross-checks the nested-DFS driver against a naive
// cycle-existence oracle on randomized small graphs, and validates every
// reported lasso by replaying it (transition names must re-fire and the
// cycle must close — the fingerprint-collision detector). The seed corpus
// covers the degenerate lasso shapes: a pure self-loop, a stem with no
// cycle at all, and a cycle running back through the initial state.
func FuzzLassoReplay(f *testing.F) {
	// Self-loop at node 0, FG P with P={1}: violated by the loop itself.
	f.Add([]byte{0, 0b01, 0b00, 0b10, 0b00, 0})
	// Stem only: 0→1, node 1 terminal. No infinite run, nothing violated.
	f.Add([]byte{0, 0b10, 0b00, 0b01, 0b00, 0})
	// Cycle through the initial state: 0→1→0, FG P with P={0}.
	f.Add([]byte{0, 0b10, 0b01, 0b01, 0b00, 0})
	// Leads-to: 0(P)→1→2↔1 with Q={} — the request at 0 never completes.
	f.Add([]byte{1, 0b010, 0b100, 0b010, 0b001, 0b000, 1})
	// Leads-to answered: 0(P)→1(Q)→1. The pending branch dies at Q.
	f.Add([]byte{0, 0b10, 0b10, 0b01, 0b10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ok := readFGraph(data)
		if !ok {
			return
		}
		sys := g.system(t)
		res, err := mc.Check(sys, mc.Options{Liveness: true, RecordTrace: true})
		if err != nil {
			t.Fatalf("graph %+v: %v", g, err)
		}
		want := g.violated()
		got := res.Verdict == mc.Failure
		if got != want {
			t.Fatalf("graph %+v: NDFS verdict %v, oracle violation %v", g, res.Verdict, want)
		}
		if !got {
			if res.Verdict != mc.Success {
				t.Fatalf("graph %+v: verdict %v, want Success", g, res.Verdict)
			}
			return
		}
		replayLasso(t, sys, res.Failure)
		// The cycle itself must witness the violation: for FG P it revisits
		// some ¬P node; for leads-to it stays inside ¬Q (the pending
		// request's monitor would die on a Q state).
		cycle := res.Failure.Trace[res.Failure.CycleStart:]
		witnessed := false
		for _, step := range cycle {
			v, err := strconv.Atoi(step.State.Key())
			if err != nil {
				t.Fatal(err)
			}
			if !g.leadsTo && g.pMask&(1<<v) == 0 {
				witnessed = true
			}
			if g.leadsTo && g.qMask&(1<<v) != 0 {
				t.Fatalf("graph %+v: leads-to cycle passes through a Q state %d", g, v)
			}
		}
		if !g.leadsTo && !witnessed {
			t.Fatalf("graph %+v: FG-P lasso cycle never visits a ¬P state", g)
		}
	})
}
