// Package toy provides small synthetic synthesis problems: the paper's
// Figure 2 worked example and a seeded random-system generator used by the
// property-based tests to cross-check the pruning search against brute
// force.
//
// A toy system is a finite directed "hole graph": nodes are states, and a
// node may carry a synthesis hole whose chosen action selects the outgoing
// edge. Nodes can also have plain (always-enabled) edges, providing
// nondeterminism. Bad nodes violate the safety invariant; goal nodes feed
// reachability goals; nodes without outgoing edges are quiescent terminals.
package toy

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"verc3/internal/ts"
)

// Node is one state of a hole graph.
type Node struct {
	// Hole names the synthesis hole at this node ("" for none). Reusing a
	// name across nodes models symmetry-aware holes (one decision shared by
	// several contexts); reuses must keep the same Acts.
	Hole string
	// Acts are the designer-provided candidate action names for Hole.
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

// Graph is a toy synthesis problem. It implements ts.System (plus
// quiescence and goal reporting) and is safe for concurrent use: all state
// lives in the immutable node table. States are shared immortal values drawn
// from a table built on first use, so the Graph deliberately does not
// implement ts.Recycler — there is no per-successor storage to reclaim.
type Graph struct {
	SysName string
	Nodes   []Node
	Init    []int

	// Lazily built lookup tables (see tables): one boxed ts.State per node
	// so FireRule never re-boxes, and every transition name preformatted —
	// node i's names start at nameOff[i], the hole's (if any) first, then
	// one per plain edge.
	once    sync.Once
	boxed   []ts.State
	names   []string
	nameOff []int
}

// The two rules of a node: ts.Rule.ID.
const (
	ruleHole  = iota // resolve the node's hole and follow the chosen edge
	rulePlain        // follow plain edge ts.Rule.Msg
)

// tables builds the boxed-state and name tables once per Graph.
func (g *Graph) tables() {
	g.once.Do(func() {
		g.boxed = make([]ts.State, len(g.Nodes))
		g.nameOff = make([]int, len(g.Nodes))
		for i := range g.Nodes {
			g.boxed[i] = state{id: i}
			g.nameOff[i] = len(g.names)
			n := &g.Nodes[i]
			if n.Hole != "" {
				g.names = append(g.names, fmt.Sprintf("n%d:hole %s", i, n.Hole))
			}
			for _, succ := range n.Plain {
				g.names = append(g.names, fmt.Sprintf("n%d→n%d", i, succ))
			}
		}
	})
}

// state wraps a node index as a ts.State.
type state struct {
	id int
}

// Key implements ts.State.
func (s state) Key() string { return fmt.Sprintf("n%d", s.id) }

// AppendKey implements ts.KeyAppender: the node index as a varint.
func (s state) AppendKey(dst []byte) []byte {
	return binary.AppendVarint(dst, int64(s.id))
}

// Clone implements ts.State.
func (s state) Clone() ts.State { return s }

// String renders the state.
func (s state) String() string { return s.Key() }

// Name implements ts.System.
func (g *Graph) Name() string {
	if g.SysName == "" {
		return "toy"
	}
	return g.SysName
}

// Initial implements ts.System.
func (g *Graph) Initial() []ts.State {
	g.tables()
	out := make([]ts.State, len(g.Init))
	for i, id := range g.Init {
		out[i] = g.boxed[id]
	}
	return out
}

// AppendRules implements ts.System: the node's hole, then its plain
// edges.
func (g *Graph) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	g.tables()
	id := s.(state).id
	n := &g.Nodes[id]
	name := uint32(g.nameOff[id])
	if n.Hole != "" {
		dst = append(dst, ts.Rule{ID: ruleHole, Name: name})
		name++
	}
	for k := range n.Plain {
		dst = append(dst, ts.Rule{ID: rulePlain, Msg: int32(k), Name: name + uint32(k)})
	}
	return dst
}

// RuleName implements ts.System.
func (g *Graph) RuleName(r ts.Rule) string { return g.names[r.Name] }

// FireRule implements ts.System, returning pre-boxed states.
func (g *Graph) FireRule(src ts.State, r ts.Rule, env *ts.Env) (ts.State, error) {
	n := &g.Nodes[src.(state).id]
	if r.ID == rulePlain {
		return g.boxed[n.Plain[r.Msg]], nil
	}
	a, err := env.Choose(n.Hole, n.Acts)
	if err != nil {
		return nil, err
	}
	return g.boxed[n.To[a]], nil
}

// Invariants implements ts.System.
func (g *Graph) Invariants() []ts.Invariant {
	return []ts.Invariant{{
		Name: "no-bad-state",
		Holds: func(s ts.State) bool {
			return !g.Nodes[s.(state).id].Bad
		},
	}}
}

// Quiescent implements ts.QuiescentReporter: terminal nodes are accepting.
func (g *Graph) Quiescent(s ts.State) bool {
	n := &g.Nodes[s.(state).id]
	return n.Hole == "" && len(n.Plain) == 0
}

// Goals implements ts.GoalReporter.
func (g *Graph) Goals() []ts.ReachGoal {
	var goals []ts.ReachGoal
	for i := range g.Nodes {
		if g.Nodes[i].Goal {
			id := i
			goals = append(goals, ts.ReachGoal{
				Name:  fmt.Sprintf("visit-n%d", id),
				Holds: func(s ts.State) bool { return s.(state).id == id },
			})
		}
	}
	return goals
}

// Validate checks structural consistency (action/edge arity, hole-name
// reuse, index ranges).
func (g *Graph) Validate() error {
	arity := map[string]int{}
	check := func(id int) error {
		if id < 0 || id >= len(g.Nodes) {
			return fmt.Errorf("toy: node index %d out of range", id)
		}
		return nil
	}
	for _, id := range g.Init {
		if err := check(id); err != nil {
			return err
		}
	}
	if len(g.Init) == 0 {
		return fmt.Errorf("toy: no initial nodes")
	}
	for i, n := range g.Nodes {
		if n.Hole != "" {
			if len(n.Acts) == 0 || len(n.Acts) != len(n.To) {
				return fmt.Errorf("toy: node %d: |Acts|=%d, |To|=%d", i, len(n.Acts), len(n.To))
			}
			if a, ok := arity[n.Hole]; ok && a != len(n.Acts) {
				return fmt.Errorf("toy: hole %q reused with arity %d (was %d)", n.Hole, len(n.Acts), a)
			}
			arity[n.Hole] = len(n.Acts)
			for _, t := range n.To {
				if err := check(t); err != nil {
					return err
				}
			}
		} else if len(n.Acts) > 0 || len(n.To) > 0 {
			return fmt.Errorf("toy: node %d has actions but no hole", i)
		}
		for _, t := range n.Plain {
			if err := check(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Figure2 reconstructs the paper's Figure 2 worked example: four holes in a
// chain, hole 1 with actions {A,B,C}, holes 2–4 with {A,B}; exactly one
// completion is correct (1@B, 2@A, 3@B, 4@B). With candidate pruning the
// synthesis procedure evaluates 10 candidates; naive enumeration evaluates
// all 3·2·2·2 = 24.
func Figure2() *Graph {
	const (
		s0  = iota // initial, hole 1
		s1         // hole 2
		s2         // hole 3
		s3         // hole 4
		ok         // success terminal
		bad        // invariant violation
	)
	return &Graph{
		SysName: "fig2",
		Init:    []int{s0},
		Nodes: []Node{
			s0:  {Hole: "1", Acts: []string{"A", "B", "C"}, To: []int{bad, s1, bad}},
			s1:  {Hole: "2", Acts: []string{"A", "B"}, To: []int{s2, bad}},
			s2:  {Hole: "3", Acts: []string{"A", "B"}, To: []int{bad, s3}},
			s3:  {Hole: "4", Acts: []string{"A", "B"}, To: []int{bad, ok}},
			ok:  {},
			bad: {Bad: true},
		},
	}
}

// Chain builds a Figure-2-style chain of holes holes, each of the given
// arity: at every hole exactly one action (the last) advances towards the
// success terminal and all others reach the bad state. This is the
// failure-heavy regime where candidate pruning shines: naive enumeration
// costs arity^holes runs while pruning costs O(holes·arity).
func Chain(holes, arity int) *Graph {
	if holes < 1 || arity < 2 {
		panic("toy: Chain needs holes >= 1, arity >= 2")
	}
	g := &Graph{SysName: fmt.Sprintf("chain%dx%d", holes, arity)}
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
	g.Init = []int{first}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// Random generates a seeded random hole graph with the given number of hole
// nodes. The shape (chain-with-branches, a sprinkling of bad sinks, plain
// edges, occasional hole reuse) is chosen so that problems have a mix of
// failing and succeeding candidates and holes are discovered incrementally,
// which is what exercises lazy discovery and pruning.
func Random(rng *rand.Rand, holes int) *Graph {
	if holes < 1 {
		panic("toy: Random needs >= 1 hole")
	}
	g := &Graph{SysName: fmt.Sprintf("rand%d", holes)}
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
	g.Init = []int{holeIDs[0]}
	if rng.Intn(4) == 0 {
		g.Nodes[okNode].Goal = true
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}
