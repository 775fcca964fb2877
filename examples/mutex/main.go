// Mutex example: synthesizing the missing actions of Peterson's algorithm.
//
// The sketch knows the control skeleton (raise flag → write turn → spin →
// critical section → exit) but not which value to write into turn, whether
// to lower the flag on exit, or where to go after the critical section. The
// synthesizer recovers Peterson's exact choices from the mutual-exclusion
// invariant, deadlock detection, and two reachability goals; every wrong
// choice is shown with the property that kills it.
//
// Run with:
//
//	go run ./examples/mutex
package main

import (
	"context"
	"fmt"
	"log"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/mutex"
	"verc3/internal/trace"
	"verc3/internal/ts"
)

func main() {
	// Verify the textbook algorithm first.
	res, err := mc.Check(mutex.New(false), mc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Peterson (complete): verdict=%s, %d states\n\n", res.Verdict, res.Stats.VisitedStates)

	// Synthesize the sketch, narrating every candidate evaluation.
	fmt.Println("synthesizing the sketch (3 holes, 2 actions each):")
	out, err := core.Synthesize(mutex.New(true), core.Config{
		Mode: core.ModePrune,
		OnEvaluate: func(ev core.Event) {
			fmt.Printf("  candidate %-12s → %s\n", fmt.Sprint(ev.Assign), ev.Verdict)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d holes discovered: %v\n", out.Stats.Holes, out.HoleNames)
	fmt.Printf("%d of %d candidates evaluated; %d solution(s)\n",
		out.Stats.Evaluated, out.Stats.CandidateSpace, len(out.Solutions))
	for i := range out.Solutions {
		fmt.Printf("  solution: %s\n", out.Describe(i))
	}

	// Show what goes wrong with the classic mistake: turn := me.
	fmt.Println("\nwhy turn:=me is wrong — the minimal counterexample:")
	bad := core.FixedChooser{"turn-write": "me", "exit-flag": "clear", "after-crit": "Idle"}
	r, err := mc.NewSession(mutex.New(true), mc.Options{RecordTrace: true}).Check(context.Background(), ts.NewEnv(bad), nil)
	if err != nil {
		log.Fatal(err)
	}
	if r.Verdict == mc.Failure {
		fmt.Print(trace.Format(r.Failure, trace.Options{ShowStates: true}))
	} else {
		fmt.Println("unexpectedly verified:", r.Verdict)
	}
}
