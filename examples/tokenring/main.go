// Token-ring example: a model written in the lightweight frontend DSL
// (internal/dsl, the paper's future-work item), with two synthesized
// actions. The model itself lives in internal/tokenring so the zoo, the
// zoo-wide differential exploration tests and the command-line tools can reuse it;
// see that package for the protocol description.
//
// Run with:
//
//	go run ./examples/tokenring
package main

import (
	"fmt"
	"log"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/tokenring"
)

func main() {
	res, err := mc.Check(tokenring.New(false), mc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("complete ring: verdict=%s, %d states\n", res.Verdict, res.Stats.VisitedStates)

	out, err := core.Synthesize(tokenring.New(true), core.Config{Mode: core.ModePrune})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: %d holes, %d/%d candidates evaluated, %d solutions\n",
		out.Stats.Holes, out.Stats.Evaluated, out.Stats.CandidateSpace, len(out.Solutions))
	for i := range out.Solutions {
		fmt.Printf("  solution: %s\n", out.Describe(i))
	}
	fmt.Println("\nBoth ring directions satisfy the specification — the synthesizer finds")
	fmt.Println("exactly these two; \"keep\" variants fail the per-process liveness goals.")
}
