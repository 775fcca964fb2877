package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/toy"
)

// TestFigure2Pruning reproduces the paper's Figure 2 worked example: with
// candidate pruning only 10 candidates are evaluated, versus 24 with naive
// enumeration, and exactly one solution exists: ⟨1@B, 2@A, 3@B, 4@B⟩.
func TestFigure2Pruning(t *testing.T) {
	g := toy.Figure2()
	res, err := core.Synthesize(g, core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats.Evaluated, int64(10); got != want {
		t.Errorf("evaluated = %d, want %d (paper Fig. 2)", got, want)
	}
	if got, want := res.Stats.Holes, 4; got != want {
		t.Errorf("holes = %d, want %d", got, want)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d, want 1: %+v", len(res.Solutions), res.Solutions)
	}
	want := []int{1, 0, 1, 1} // B, A, B, B
	got := res.Solutions[0].Assign
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solution = %v (%s), want %v", got, res.Describe(0), want)
		}
	}
	// The paper's run table inserts 5 pruning patterns; TestFigure2RunTable
	// pins which runs insert them.
	if got, want := res.Stats.Patterns, 5; got != want {
		t.Errorf("patterns = %d, want %d", got, want)
	}
	// Nominal candidate space with wildcards: 4·3·3·3 = 108.
	if got, want := res.Stats.CandidateSpace, uint64(108); got != want {
		t.Errorf("candidate space = %d, want %d", got, want)
	}
}

// TestFigure2RunTable pins the paper's Figure 2 run table: at one worker the
// OnEvaluate stream is the evaluation order, and each run is rendered as its
// candidate in the paper's notation (i@X for a bound hole, i@? for a hole
// discovered but not yet bound), verdict, and the pattern and hole counts
// after the run. Pruning patterns are inserted by runs 2, 4, 6, 7 and 9.
func TestFigure2RunTable(t *testing.T) {
	var events []core.Event
	res, err := core.Synthesize(toy.Figure2(), core.Config{
		Mode:       core.ModePrune,
		Workers:    1,
		OnEvaluate: func(ev core.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1 ⟨1@?⟩ unknown 0 1",
		"2 ⟨1@A⟩ failure 1 1",
		"3 ⟨1@B, 2@?⟩ unknown 1 2",
		"4 ⟨1@C, 2@?⟩ failure 2 2",
		"5 ⟨1@B, 2@A, 3@?⟩ unknown 2 3",
		"6 ⟨1@B, 2@B, 3@?⟩ failure 3 3",
		"7 ⟨1@B, 2@A, 3@A⟩ failure 4 3",
		"8 ⟨1@B, 2@A, 3@B, 4@?⟩ unknown 4 4",
		"9 ⟨1@B, 2@A, 3@B, 4@A⟩ failure 5 4",
		"10 ⟨1@B, 2@A, 3@B, 4@B⟩ success 5 4",
	}
	got := make([]string, len(events))
	for i, ev := range events {
		holes := make([]string, ev.Holes)
		for h := range holes {
			act := "?"
			if h < len(ev.Assign) {
				act = res.HoleActions[h][ev.Assign[h]]
			}
			holes[h] = fmt.Sprintf("%d@%s", h+1, act)
		}
		got[i] = fmt.Sprintf("%d ⟨%s⟩ %s %d %d", i+1, strings.Join(holes, ", "), ev.Verdict, ev.Patterns, ev.Holes)
	}
	if !slices.Equal(got, want) {
		t.Errorf("run table:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFigure2Naive checks the naive baseline on Figure 2. The paper's "24
// candidates would have been evaluated" is the nominal 3·2·2·2 product,
// which we report as CandidateSpace; our naive baseline retains lazy hole
// discovery (holes never reached under already-enumerated prefixes are not
// re-enumerated), so it dispatches 16 of the 24. On the MSI case study all
// holes are discovered in the first run and the two notions coincide.
func TestFigure2Naive(t *testing.T) {
	g := toy.Figure2()
	res, err := core.Synthesize(g, core.Config{Mode: core.ModeNaive})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats.Evaluated, int64(16); got != want {
		t.Errorf("evaluated = %d, want %d", got, want)
	}
	if got, want := res.Stats.CandidateSpace, uint64(24); got != want {
		t.Errorf("candidate space = %d, want %d (paper's naive count)", got, want)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d, want 1", len(res.Solutions))
	}
}

// TestFigure2Parallel checks that parallel pruning synthesis finds the same
// solution set.
func TestFigure2Parallel(t *testing.T) {
	g := toy.Figure2()
	res, err := core.Synthesize(g, core.Config{Mode: core.ModePrune, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0].Assign[0] != 1 {
		t.Fatalf("parallel solutions = %+v, want the unique ⟨B,A,B,B⟩", res.Solutions)
	}
}

// bruteForce computes the ground-truth success set of a toy graph by
// enumerating every total assignment of the graph's holes and simulating
// reachability directly (no model checker, no pruning): a candidate succeeds
// iff no bad node is reachable and all goal nodes are reachable.
func bruteForce(g *toy.Graph) (holes []string, arity map[string]int, successes []map[string]int) {
	arity = map[string]int{}
	for _, n := range g.Nodes {
		if n.Hole != "" {
			if _, ok := arity[n.Hole]; !ok {
				holes = append(holes, n.Hole)
			}
			arity[n.Hole] = len(n.Acts)
		}
	}
	assign := map[string]int{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(holes) {
			if simulate(g, assign) {
				cp := map[string]int{}
				for k, v := range assign {
					cp[k] = v
				}
				successes = append(successes, cp)
			}
			return
		}
		for a := 0; a < arity[holes[i]]; a++ {
			assign[holes[i]] = a
			rec(i + 1)
		}
	}
	rec(0)
	return holes, arity, successes
}

// simulate runs plain reachability for one total assignment.
func simulate(g *toy.Graph, assign map[string]int) bool {
	seen := make([]bool, len(g.Nodes))
	stack := append([]int(nil), g.Init...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		n := &g.Nodes[v]
		if n.Bad {
			return false
		}
		if n.Hole != "" {
			stack = append(stack, n.To[assign[n.Hole]])
		}
		stack = append(stack, n.Plain...)
	}
	for i := range g.Nodes {
		if g.Nodes[i].Goal && !seen[i] {
			return false
		}
	}
	return true
}

// checkAgainstBruteForce verifies soundness and completeness of a synthesis
// result against ground truth:
//
//   - soundness: every total assignment consistent with a reported solution
//     is a ground-truth success;
//   - completeness: every ground-truth success is consistent with some
//     reported solution.
func checkAgainstBruteForce(t *testing.T, g *toy.Graph, res *core.Result, label string) {
	t.Helper()
	holes, arity, successes := bruteForce(g)

	consistent := func(total map[string]int, sol core.Solution) bool {
		for i, a := range sol.Assign {
			if a == core.Wildcard {
				continue
			}
			if total[res.HoleNames[i]] != a {
				return false
			}
		}
		return true
	}

	// Completeness.
	for _, suc := range successes {
		found := false
		for _, sol := range res.Solutions {
			if consistent(suc, sol) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: ground-truth success %v not covered by any reported solution", label, suc)
		}
	}

	// Soundness: enumerate all totals consistent with each solution.
	total := map[string]int{}
	var rec func(i int, sol core.Solution) bool
	rec = func(i int, sol core.Solution) bool {
		if i == len(holes) {
			return simulate(g, total)
		}
		h := holes[i]
		fixed := -1
		for j, name := range res.HoleNames {
			if name == h && j < len(sol.Assign) && sol.Assign[j] != core.Wildcard {
				fixed = sol.Assign[j]
				break
			}
		}
		if fixed >= 0 {
			total[h] = fixed
			return rec(i+1, sol)
		}
		for a := 0; a < arity[h]; a++ {
			total[h] = a
			if !rec(i+1, sol) {
				return false
			}
		}
		return true
	}
	for si, sol := range res.Solutions {
		if !rec(0, sol) {
			t.Errorf("%s: reported solution %d (%s) has a failing completion", label, si, res.Describe(si))
		}
	}
}

// TestRandomSystemsAgainstBruteForce is the core property test: on seeded
// random systems, pruned (sequential and parallel, both prune styles) and
// naive synthesis must all agree exactly with brute-force ground truth.
func TestRandomSystemsAgainstBruteForce(t *testing.T) {
	configs := []core.Config{
		{Mode: core.ModeNaive},
		{Mode: core.ModePrune},
		{Mode: core.ModePrune, PruneStyle: core.PruneTraceGeneralized},
		{Mode: core.ModePrune, Workers: 4},
		{Mode: core.ModePrune, PruneStyle: core.PruneTraceGeneralized, Workers: 4},
	}
	n := 60
	if testing.Short() {
		n = 15
	}
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := toy.Random(rng, 2+rng.Intn(5))
		for _, cfg := range configs {
			label := fmt.Sprintf("seed=%d mode=%v style=%v workers=%d", seed, cfg.Mode, cfg.PruneStyle, cfg.Workers)
			res, err := core.Synthesize(g, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkAgainstBruteForce(t, g, res, label)
		}
	}
}

// TestPruningWinsOnFailureHeavyChains checks the headline claim on its
// natural domain: in failure-heavy problems (one viable action per hole, as
// in faulty distributed protocols, where a few transitions suffice to reach
// an error), pruning evaluates exponentially fewer candidates than naive
// enumeration. Pruning costs O(holes·arity) runs; naive costs arity^holes.
func TestPruningWinsOnFailureHeavyChains(t *testing.T) {
	for _, tc := range []struct{ holes, arity int }{
		{4, 2}, {4, 3}, {6, 2}, {6, 3}, {8, 2},
	} {
		g := toy.Chain(tc.holes, tc.arity)
		naive, err := core.Synthesize(g, core.Config{Mode: core.ModeNaive})
		if err != nil {
			t.Fatal(err)
		}
		prune, err := core.Synthesize(g, core.Config{Mode: core.ModePrune})
		if err != nil {
			t.Fatal(err)
		}
		// Lazy discovery makes even the naive baseline linear on chains
		// (holes appear one at a time): 1 empty run + (arity-1) failures
		// per hole + the final success per hole boundary.
		wantNaive := int64(1 + tc.holes*(tc.arity-1))
		if naive.Stats.Evaluated != wantNaive {
			t.Errorf("chain %dx%d: naive evaluated %d, want %d", tc.holes, tc.arity, naive.Stats.Evaluated, wantNaive)
		}
		// The nominal space is the full product the paper's naive scheme
		// counts.
		wantSpace := uint64(1)
		for i := 0; i < tc.holes; i++ {
			wantSpace *= uint64(tc.arity)
		}
		if naive.Stats.CandidateSpace != wantSpace {
			t.Errorf("chain %dx%d: naive space %d, want %d", tc.holes, tc.arity, naive.Stats.CandidateSpace, wantSpace)
		}
		// Pruning: the initial empty run, then per round at most `arity`
		// new evaluations (failed prefixes are pattern-pruned).
		bound := int64(1 + tc.holes*tc.arity)
		if prune.Stats.Evaluated > bound {
			t.Errorf("chain %dx%d: prune evaluated %d > bound %d", tc.holes, tc.arity, prune.Stats.Evaluated, bound)
		}
		if len(naive.Solutions) != 1 || len(prune.Solutions) != 1 {
			t.Errorf("chain %dx%d: solutions naive=%d prune=%d, want 1/1", tc.holes, tc.arity, len(naive.Solutions), len(prune.Solutions))
		}
	}
}

// TestTruncation checks MaxEvaluations stops synthesis and flags the result.
func TestTruncation(t *testing.T) {
	g := toy.Figure2()
	res, err := core.Synthesize(g, core.Config{Mode: core.ModeNaive, MaxEvaluations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Error("expected Truncated")
	}
	if res.Stats.Evaluated > 5 {
		t.Errorf("evaluated %d > cap 5", res.Stats.Evaluated)
	}
}

// TestNaiveRejectsWorkers checks the naive/parallel validation.
func TestNaiveRejectsWorkers(t *testing.T) {
	_, err := core.Synthesize(toy.Figure2(), core.Config{Mode: core.ModeNaive, Workers: 2})
	if err == nil {
		t.Fatal("want error for naive+workers")
	}
}

// TestConfigRejectsManagedMCFields checks RecordTrace is refused: the engine
// turns it on only for the final re-verification.
func TestConfigRejectsManagedMCFields(t *testing.T) {
	_, err := core.Synthesize(toy.Figure2(), core.Config{MC: mc.Options{RecordTrace: true}})
	if err == nil {
		t.Fatal("want error for RecordTrace in Config.MC")
	}
}

// TestInherentlyFaultySkeleton: a skeleton whose empty candidate already
// fails has no solutions and stops quickly.
func TestInherentlyFaultySkeleton(t *testing.T) {
	g := &toy.Graph{
		SysName: "faulty",
		Init:    []int{0},
		Nodes: []toy.Node{
			{Plain: []int{1}},
			{Bad: true},
		},
	}
	res, err := core.Synthesize(g, core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Errorf("solutions = %d, want 0", len(res.Solutions))
	}
	if res.Stats.Evaluated != 1 {
		t.Errorf("evaluated = %d, want 1", res.Stats.Evaluated)
	}
}

// TestCompleteModel: a hole-free correct model yields one (empty) solution.
func TestCompleteModel(t *testing.T) {
	g := &toy.Graph{
		SysName: "complete",
		Init:    []int{0},
		Nodes: []toy.Node{
			{Plain: []int{1}},
			{},
		},
	}
	for _, mode := range []core.Mode{core.ModePrune, core.ModeNaive} {
		res, err := core.Synthesize(g, core.Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 1 || len(res.Solutions[0].Assign) != 0 {
			t.Errorf("mode %v: want one empty solution, got %+v", mode, res.Solutions)
		}
	}
}
