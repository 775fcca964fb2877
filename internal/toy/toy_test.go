package toy_test

import (
	"context"
	"math/rand"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/toy"
	"verc3/internal/ts"
)

// TestFigure2Structure pins the worked example's shape: 4 holes, arities
// 3,2,2,2, one initial node.
func TestFigure2Structure(t *testing.T) {
	g := toy.Figure2()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	arity := map[string]int{}
	for _, n := range g.Nodes {
		if n.Hole != "" {
			arity[n.Hole] = len(n.Acts)
		}
	}
	want := map[string]int{"1": 3, "2": 2, "3": 2, "4": 2}
	for h, a := range want {
		if arity[h] != a {
			t.Errorf("hole %s arity = %d, want %d", h, arity[h], a)
		}
	}
}

// TestChainShape checks Chain's single correct action per hole.
func TestChainShape(t *testing.T) {
	g := toy.Chain(5, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	holes := 0
	for _, n := range g.Nodes {
		if n.Hole != "" {
			holes++
			if len(n.Acts) != 3 {
				t.Errorf("arity = %d, want 3", len(n.Acts))
			}
		}
	}
	if holes != 5 {
		t.Errorf("holes = %d, want 5", holes)
	}
}

// TestRandomGraphsValid checks the generator over many seeds.
func TestRandomGraphsValid(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := toy.Random(rng, 1+rng.Intn(7))
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestValidateRejections covers the structural error paths.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		g    *toy.Graph
	}{
		{"no-init", &toy.Graph{Nodes: []toy.Node{{}}}},
		{"init-out-of-range", &toy.Graph{Init: []int{5}, Nodes: []toy.Node{{}}}},
		{"arity-mismatch", &toy.Graph{Init: []int{0}, Nodes: []toy.Node{
			{Hole: "h", Acts: []string{"A", "B"}, To: []int{0}},
		}}},
		{"edge-out-of-range", &toy.Graph{Init: []int{0}, Nodes: []toy.Node{
			{Hole: "h", Acts: []string{"A"}, To: []int{9}},
		}}},
		{"plain-out-of-range", &toy.Graph{Init: []int{0}, Nodes: []toy.Node{
			{Plain: []int{9}},
		}}},
		{"acts-without-hole", &toy.Graph{Init: []int{0}, Nodes: []toy.Node{
			{Acts: []string{"A"}, To: []int{0}},
		}}},
		{"hole-reuse-arity", &toy.Graph{Init: []int{0}, Nodes: []toy.Node{
			{Hole: "h", Acts: []string{"A", "B"}, To: []int{1, 1}},
			{Hole: "h", Acts: []string{"A"}, To: []int{0}},
		}}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
}

// fixed resolves every hole to the same action index.
type fixed int

func (f fixed) Choose(hole string, actions []string) (int, error) {
	if int(f) >= len(actions) {
		return len(actions) - 1, nil
	}
	return int(f), nil
}

// TestFigure2UniqueCompletion: checking the chain under the correct fixed
// assignment succeeds; a wrong one fails.
func TestFigure2UniqueCompletion(t *testing.T) {
	g := toy.Figure2()
	// Correct: 1@B(1), 2@A(0), 3@B(1), 4@B(1) — not a constant assignment,
	// so use a map chooser.
	correct := mapChooser{"1": 1, "2": 0, "3": 1, "4": 1}
	res, err := mc.NewSession(g, mc.Options{}).Check(context.Background(), ts.NewEnv(correct), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("correct completion: verdict %v", res.Verdict)
	}
	res, err = mc.NewSession(g, mc.Options{}).Check(context.Background(), ts.NewEnv(fixed(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure {
		t.Fatalf("1@A completion: verdict %v, want failure", res.Verdict)
	}
}

type mapChooser map[string]int

func (m mapChooser) Choose(hole string, actions []string) (int, error) {
	return m[hole], nil
}

// TestGraphQuiescence: terminal plain nodes are quiescent; hole nodes are
// not.
func TestGraphQuiescence(t *testing.T) {
	g := toy.Figure2()
	states := g.Initial()
	if g.Quiescent(states[0]) {
		t.Error("hole node must not be quiescent")
	}
}
