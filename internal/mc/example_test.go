package mc_test

import (
	"fmt"

	"verc3/internal/mc"
	"verc3/internal/ts/tstest"
)

// ExampleCheck model-checks a four-state chain whose terminal state
// violates the safety invariant. Trace recording is on, so the failure
// carries the minimal BFS counterexample; with mc.Options.RecordTrace left
// false the same run would retain only 8 bytes per state and report
// Failure without a trace.
func ExampleCheck() {
	g := &tstest.Graph{Name: "demo", Nodes: []tstest.Node{
		{Plain: []int{1}},
		{Plain: []int{2}},
		{Plain: []int{3}},
		{Bad: true},
	}}
	res, err := mc.Check(g.System(), mc.Options{RecordTrace: true})
	if err != nil {
		panic(err)
	}
	fmt.Println("verdict:", res.Verdict)
	fmt.Println("states:", res.Stats.VisitedStates)
	fmt.Println("violated:", res.Failure.Name)
	for _, step := range res.Failure.Trace {
		if step.Rule == "" {
			fmt.Println("  start", step.State.Key())
			continue
		}
		fmt.Printf("  %s gives %s\n", step.Rule, step.State.Key())
	}
	// Output:
	// verdict: failure
	// states: 4
	// violated: no-bad-state
	//   start 0
	//   n0→n1 gives 1
	//   n1→n2 gives 2
	//   n2→n3 gives 3
}
