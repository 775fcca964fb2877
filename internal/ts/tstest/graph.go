package tstest

import (
	"fmt"
	"math/rand"
	"strings"

	"verc3/internal/spec"
	"verc3/internal/ts"
)

// Node is one state of a hole graph.
type Node struct {
	// Hole names the synthesis hole at this node ("" for none). Reusing a
	// name across nodes models symmetry-aware holes (one decision shared by
	// several contexts); reuses must keep the same Acts.
	Hole string
	// Acts are the designer-provided candidate action names for Hole (at
	// least two).
	Acts []string
	// To[i] is the successor node when the hole resolves to action i.
	To []int
	// Plain lists always-enabled successor nodes (nondeterministic edges).
	Plain []int
	// Bad marks the node as violating the safety invariant.
	Bad bool
	// Goal marks the node as a reachability goal ("must be visited").
	Goal bool
}

// Graph is a small synthesis problem for tests: a finite directed "hole
// graph" whose nodes are states. A node may carry a synthesis hole whose
// chosen action selects the outgoing edge, and plain (always-enabled)
// edges, providing nondeterminism. Bad nodes violate the safety invariant,
// goal nodes feed reachability goals, and nodes without outgoing edges are
// quiescent terminals.
type Graph struct {
	Name  string // the system's name
	Nodes []Node
	Init  int // the one initial node
}

// System compiles the graph to a spec over one variable v, the node, so a
// test graph runs on the same frontend as the committed models. In node
// order, each node contributes a "n%d:hole %s" rule that chooses among its
// actions and one "n%d→n%d" rule per plain edge, all guarded by v being
// that node. The invariant no-bad-state excludes the bad nodes, each goal
// node is a visit-n%d reach goal, and the terminal nodes are quiescent.
// An ill-formed graph panics.
func (g *Graph) System() ts.System {
	lo, hi := 0, len(g.Nodes)-1
	s := &spec.Spec{
		Format: spec.FormatV1,
		Name:   g.Name,
		Vars:   []spec.VarSpec{{Name: "v", Type: "int", Min: &lo, Max: &hi, Init: fmt.Sprint(g.Init)}},
	}
	goTo := func(n int) []spec.Stmt { return []spec.Stmt{{Set: fmt.Sprintf("v = %d", n)}} }
	var good, terminal []string
	for i, n := range g.Nodes {
		at := fmt.Sprintf("v == %d", i)
		if n.Hole != "" {
			among := make([]spec.Candidate, len(n.Acts))
			for a, act := range n.Acts {
				among[a] = spec.Candidate{Name: act, Do: goTo(n.To[a])}
			}
			s.Rules = append(s.Rules, spec.RuleSpec{
				Name:   fmt.Sprintf("n%d:hole %s", i, n.Hole),
				Guard:  at,
				Action: []spec.Stmt{{Choose: &spec.ChooseStmt{Hole: n.Hole, Among: among}}},
			})
		}
		for _, succ := range n.Plain {
			s.Rules = append(s.Rules, spec.RuleSpec{Name: fmt.Sprintf("n%d→n%d", i, succ), Guard: at, Action: goTo(succ)})
		}
		if n.Bad {
			good = append(good, fmt.Sprintf("v != %d", i))
		}
		if n.Goal {
			s.Goals = append(s.Goals, spec.PropSpec{Name: fmt.Sprintf("visit-n%d", i), Expr: at})
		}
		if n.Hole == "" && len(n.Plain) == 0 {
			terminal = append(terminal, at)
		}
	}
	if len(s.Rules) == 0 {
		// A spec needs a rule; this one is never enabled.
		s.Rules = []spec.RuleSpec{{Name: "no-edges", Guard: "false", Action: goTo(g.Init)}}
	}
	inv := "true"
	if len(good) > 0 {
		inv = strings.Join(good, " && ")
	}
	s.Invariants = []spec.PropSpec{{Name: "no-bad-state", Expr: inv}}
	s.Quiescent = strings.Join(terminal, " || ")
	m, err := spec.Compile(s)
	if err != nil {
		panic(fmt.Sprintf("tstest: graph %q: %v", g.Name, err))
	}
	return m.System()
}

// Chain builds a Figure-2-style chain of holes holes, each of the given
// arity: at every hole exactly one action (the last) advances towards the
// success terminal and all others reach the bad state. This is the
// failure-heavy regime where candidate pruning shines: naive enumeration
// costs arity^holes runs while pruning costs O(holes·arity).
func Chain(holes, arity int) *Graph {
	if holes < 1 || arity < 2 {
		panic("tstest: Chain needs holes >= 1, arity >= 2")
	}
	g := &Graph{Name: fmt.Sprintf("chain%dx%d", holes, arity)}
	const (
		okNode  = 0
		badNode = 1
	)
	g.Nodes = append(g.Nodes, Node{}, Node{Bad: true})
	acts := make([]string, arity)
	for a := range acts {
		acts[a] = string(rune('A' + a))
	}
	first := len(g.Nodes)
	for i := 0; i < holes; i++ {
		to := make([]int, arity)
		for a := range to {
			to[a] = badNode
		}
		next := okNode
		if i+1 < holes {
			next = first + i + 1
		}
		to[arity-1] = next
		g.Nodes = append(g.Nodes, Node{Hole: fmt.Sprintf("h%d", i), Acts: acts, To: to})
	}
	g.Init = first
	return g
}

// Random generates a seeded random hole graph with the given number of hole
// nodes. The shape (chain-with-branches, a sprinkling of bad sinks, plain
// edges, occasional hole reuse) is chosen so that problems have a mix of
// failing and succeeding candidates and holes are discovered incrementally,
// which is what exercises lazy discovery and pruning.
func Random(rng *rand.Rand, holes int) *Graph {
	if holes < 1 {
		panic("tstest: Random needs >= 1 hole")
	}
	g := &Graph{Name: fmt.Sprintf("rand%d", holes)}
	const (
		okNode  = 0
		badNode = 1
	)
	g.Nodes = append(g.Nodes, Node{}, Node{Bad: true})
	// Hole nodes form a rough chain; each action goes forward, to ok, or to
	// bad. Extra plain edges add nondeterministic shortcuts.
	holeIDs := make([]int, holes)
	for i := 0; i < holes; i++ {
		holeIDs[i] = len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{})
	}
	actNames := []string{"A", "B", "C", "D"}
	for i := 0; i < holes; i++ {
		arity := 2 + rng.Intn(2)
		n := &g.Nodes[holeIDs[i]]
		n.Hole = fmt.Sprintf("h%d", i)
		if i >= 2 && rng.Intn(4) == 0 {
			// Reuse an earlier hole (same decision in a second context);
			// must keep its arity.
			j := rng.Intn(i - 1)
			n.Hole = fmt.Sprintf("h%d", j)
			arity = len(g.Nodes[holeIDs[j]].Acts)
		}
		n.Acts = actNames[:arity]
		n.To = make([]int, arity)
		for a := 0; a < arity; a++ {
			switch r := rng.Intn(6); {
			case r == 0:
				n.To[a] = badNode
			case r == 1 || i == holes-1:
				n.To[a] = okNode
			default:
				// Forward edge to a later hole node, or off the end to ok.
				if j := i + 1 + rng.Intn(holes-i); j >= holes {
					n.To[a] = okNode
				} else {
					n.To[a] = holeIDs[j]
				}
			}
		}
		if rng.Intn(3) == 0 && i+1 < holes {
			n.Plain = append(n.Plain, holeIDs[i+1])
		}
	}
	g.Init = holeIDs[0]
	if rng.Intn(4) == 0 {
		g.Nodes[okNode].Goal = true
	}
	return g
}
