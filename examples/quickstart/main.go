// Quickstart: describe a tiny transition system with synthesis holes,
// verify one completion of it, and synthesize the holes — the complete
// VerC3 workflow in one file.
//
// The system is a two-phase commit toy: a coordinator asks two workers to
// prepare, then must decide commit or abort. Two actions are left as holes:
// what to decide when every worker voted yes, and what to decide when any
// worker voted no. The correctness specification (atomicity invariants plus
// a "commits actually happen" goal) admits exactly one completion.
//
// The sketch is data — a verc3_model_v1 JSON model spec (internal/spec) —
// so there is no Go modelling code. Specs are what the command-line tools
// load with -spec:
//
//	verc3-verify -spec examples/specs/tokenring.json -liveness
//	verc3-synth  -spec examples/specs/mutex-sketch.json
//
// (sketch specs are refused by verc3-verify, which points at verc3-synth;
// the committed examples under examples/specs/ are also the zoo's
// peterson and token-ring entries, pinned by TestSpecEquivalence).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
)

// specDoc is the two-phase-commit sketch as a verc3_model_v1 model spec:
// variables are typed declarations, rules are guarded commands in the spec
// expression language, and the two coordinator decisions are `choose`
// holes. Saved to a file, this is exactly what
// `verc3-synth -spec file.json` loads.
const specDoc = `{
  "format": "verc3_model_v1",
  "name": "two-phase-commit",
  "processes": 2,
  "vars": [
    {"name": "ph", "type": "enum", "values": ["Collecting", "Committed", "Aborted"]},
    {"name": "vote", "type": "int", "min": -1, "max": 1, "init": "-1", "array": true},
    {"name": "applied", "type": "bool", "array": true}
  ],
  "rules": [
    {"name": "worker %d votes yes", "per_process": true,
     "guard": "ph == Collecting && vote[i] == -1", "action": ["vote[i] = 1"]},
    {"name": "worker %d votes no", "per_process": true,
     "guard": "ph == Collecting && vote[i] == -1", "action": ["vote[i] = 0"]},
    {"name": "coordinator decides (all yes)",
     "guard": "ph == Collecting && vote[0] == 1 && vote[1] == 1",
     "action": [{"choose": "decide-on-all-yes", "among": [
       {"name": "commit", "do": ["ph = Committed", "applied[0] = true", "applied[1] = true"]},
       {"name": "abort", "do": ["ph = Aborted"]}]}]},
    {"name": "coordinator decides (any no)",
     "guard": "ph == Collecting && vote[0] != -1 && vote[1] != -1 && (vote[0] == 0 || vote[1] == 0)",
     "action": [{"choose": "decide-on-any-no", "among": [
       {"name": "commit", "do": ["ph = Committed", "applied[0] = true", "applied[1] = true"]},
       {"name": "abort", "do": ["ph = Aborted"]}]}]}
  ],
  "invariants": [
    {"name": "commit-needs-unanimous-yes", "expr": "ph != Committed || (vote[0] == 1 && vote[1] == 1)"},
    {"name": "apply-only-on-commit", "expr": "ph == Committed || (!applied[0] && !applied[1])"}
  ],
  "goals": [
    {"name": "some-commit-happens", "expr": "ph == Committed"}
  ],
  "quiescent": "ph != Collecting"
}`

func main() {
	// spec.Parse validates the document (errors carry the JSON path of the
	// offender) and compiles it to a model that instantiates ts.Systems.
	m, err := spec.Parse([]byte(specDoc))
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: verify the complete protocol — the sketch with each hole
	// fixed to the action a designer would write by hand.
	complete := core.FixedChooser{"decide-on-all-yes": "commit", "decide-on-any-no": "abort"}
	res, err := mc.NewSession(m.System(), mc.Options{RecordTrace: true}).
		Check(context.Background(), ts.NewEnv(complete), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("complete model: verdict=%s states=%d\n", res.Verdict, res.Stats.VisitedStates)

	// Step 2: synthesize the holes.
	out, err := core.Synthesize(m.System(), core.Config{Mode: core.ModePrune})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: %d holes, %d/%d candidates evaluated, %d solution(s)\n",
		out.Stats.Holes, out.Stats.Evaluated, out.Stats.CandidateSpace, len(out.Solutions))
	for i := range out.Solutions {
		fmt.Printf("  solution: %s\n", out.Describe(i))
	}
}
