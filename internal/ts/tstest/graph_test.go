package tstest_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
)

// TestGraphSystem pins what a graph compiles to: the initial node, each
// node's rules in node order with their n%d:hole and n%d→n%d names, the
// no-bad-state invariant, visit goals, and quiescent terminals.
func TestGraphSystem(t *testing.T) {
	g := &tstest.Graph{Name: "g", Init: 1, Nodes: []tstest.Node{
		{Bad: true},
		{Hole: "h", Acts: []string{"A", "B"}, To: []int{0, 2}, Plain: []int{2}},
		{Goal: true},
	}}
	sys := g.System()
	if sys.Name() != "g" {
		t.Errorf("name %q", sys.Name())
	}
	init := sys.Initial()
	if len(init) != 1 || init[0].Key() != "1" {
		t.Fatalf("initial states %v, want node 1", init)
	}
	var names []string
	for _, r := range sys.AppendRules(nil, init[0]) {
		names = append(names, sys.RuleName(r))
	}
	if want := []string{"n1:hole h", "n1→n2"}; !slices.Equal(names, want) {
		t.Errorf("rules %q, want %q", names, want)
	}
	// The hole resolved to A leads to the bad node 0, the plain edge to
	// the goal node 2.
	env := ts.NewEnv(fixed(0))
	rules := sys.AppendRules(nil, init[0])
	bad, err := sys.FireRule(init[0], rules[0], env)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sys.FireRule(init[0], rules[1], env)
	if err != nil {
		t.Fatal(err)
	}
	invs := sys.Invariants()
	if len(invs) != 1 || invs[0].Name != "no-bad-state" || invs[0].Holds(bad) || !invs[0].Holds(good) {
		t.Errorf("invariants %v: want no-bad-state failing at node 0 only", invs)
	}
	goals := sys.(ts.GoalReporter).Goals()
	if len(goals) != 1 || goals[0].Name != "visit-n2" || !goals[0].Holds(good) || goals[0].Holds(bad) {
		t.Errorf("goals %v: want visit-n2", goals)
	}
	q := sys.(ts.QuiescentReporter)
	if !q.Quiescent(good) || !q.Quiescent(bad) || q.Quiescent(init[0]) {
		t.Error("terminal nodes must be quiescent and the hole node must not")
	}
}

// fixed resolves every hole to the same action index.
type fixed int

func (f fixed) Choose(string, []string) (int, error) { return int(f), nil }

// TestGeneratedGraphsCompile checks that Chain and Random graphs are
// well-formed specs over many seeds (System panics otherwise) and start at
// their Init node.
func TestGeneratedGraphsCompile(t *testing.T) {
	graphs := []*tstest.Graph{tstest.Chain(5, 3), tstest.Chain(70, 2)}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		graphs = append(graphs, tstest.Random(rng, 1+rng.Intn(7)))
	}
	for _, g := range graphs {
		if got, want := g.System().Initial()[0].Key(), fmt.Sprint(g.Init); got != want {
			t.Errorf("%s: initial state %s, want node %s", g.Name, got, want)
		}
	}
}
