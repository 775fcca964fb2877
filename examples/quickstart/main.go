// Quickstart: define a tiny transition system with synthesis holes, verify
// it, and synthesize the holes — the complete VerC3 workflow in one file.
//
// The system is a two-phase commit toy: a coordinator asks two workers to
// prepare, then must decide commit or abort. Two actions are left as holes:
// what to decide when every worker voted yes, and what to decide when any
// worker voted no. The correctness specification (atomicity invariants plus
// a "commits actually happen" goal) admits exactly one completion.
//
// The same sketch is then rebuilt as data — a verc3_model_v1 JSON model
// spec (internal/spec) — and synthesized again, without any Go modelling
// code. Specs are what the command-line tools load with -spec:
//
//	verc3-verify -spec examples/specs/tokenring.json -liveness
//	verc3-synth  -spec examples/specs/mutex-sketch.json
//
// (sketch specs are refused by verc3-verify, which points at verc3-synth;
// the committed examples under examples/specs/ are pinned byte-for-byte
// equivalent to their hand-written zoo twins by TestSpecEquivalence).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
)

// phase is the coordinator's protocol phase.
type phase int8

const (
	collecting phase = iota // gathering votes
	committed
	aborted
)

// state is the global state: the coordinator phase and each worker's vote
// (-1 undecided, 0 no, 1 yes) and outcome.
type state struct {
	Phase   phase
	Votes   [2]int8
	Applied [2]bool // worker applied the commit
}

func (s *state) Key() string {
	return fmt.Sprintf("%d|%d,%d|%v,%v", s.Phase, s.Votes[0], s.Votes[1], s.Applied[0], s.Applied[1])
}

// AppendKey is the binary encoding the checker fingerprints: Key's fields,
// one byte each.
func (s *state) AppendKey(dst []byte) []byte {
	b := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	return append(dst, byte(s.Phase), byte(s.Votes[0]), byte(s.Votes[1]), b(s.Applied[0]), b(s.Applied[1]))
}

func (s *state) Clone() ts.State { cp := *s; return &cp }

// system implements ts.System. sketch selects holes vs. the fixed solution.
type system struct{ sketch bool }

func (sys *system) Name() string { return "two-phase-commit" }

func (sys *system) Initial() []ts.State {
	return []ts.State{&state{Votes: [2]int8{-1, -1}}}
}

// decideActions is the designer-provided action library for both holes.
var decideActions = []string{"commit", "abort"}

func (sys *system) Transitions(s ts.State) []ts.Transition {
	st := s.(*state)
	var trs []ts.Transition

	// Workers vote (nondeterministically yes or no).
	for w := 0; w < 2; w++ {
		w := w
		if st.Phase == collecting && st.Votes[w] == -1 {
			for _, vote := range []int8{0, 1} {
				vote := vote
				trs = append(trs, ts.Transition{
					Name: fmt.Sprintf("worker %d votes %d", w, vote),
					Fire: func(*ts.Env) (ts.State, error) {
						ns := st.Clone().(*state)
						ns.Votes[w] = vote
						return ns, nil
					},
				})
			}
		}
	}

	// Coordinator decides once all votes are in. The decision in each case
	// is a synthesis hole.
	if st.Phase == collecting && st.Votes[0] != -1 && st.Votes[1] != -1 {
		allYes := st.Votes[0] == 1 && st.Votes[1] == 1
		hole, correct := "decide-on-any-no", 1 // abort
		if allYes {
			hole, correct = "decide-on-all-yes", 0 // commit
		}
		trs = append(trs, ts.Transition{
			Name: "coordinator decides (" + hole + ")",
			Fire: func(env *ts.Env) (ts.State, error) {
				act := correct
				if sys.sketch {
					var err error
					if act, err = env.Choose(hole, decideActions); err != nil {
						return nil, err
					}
				}
				ns := st.Clone().(*state)
				if act == 0 {
					ns.Phase = committed
					ns.Applied = [2]bool{true, true}
				} else {
					ns.Phase = aborted
				}
				return ns, nil
			},
		})
	}
	return trs
}

func (sys *system) Invariants() []ts.Invariant {
	return []ts.Invariant{
		{Name: "commit-needs-unanimous-yes", Holds: func(s ts.State) bool {
			st := s.(*state)
			return st.Phase != committed || (st.Votes[0] == 1 && st.Votes[1] == 1)
		}},
		{Name: "apply-only-on-commit", Holds: func(s ts.State) bool {
			st := s.(*state)
			return st.Phase == committed || (!st.Applied[0] && !st.Applied[1])
		}},
	}
}

// Goals: a degenerate always-abort coordinator is safe but useless; require
// that a commit is reachable.
func (sys *system) Goals() []ts.ReachGoal {
	return []ts.ReachGoal{{
		Name:  "some-commit-happens",
		Holds: func(s ts.State) bool { return s.(*state).Phase == committed },
	}}
}

// Quiescent: decided states are terminal by design, not deadlocks.
func (sys *system) Quiescent(s ts.State) bool {
	return s.(*state).Phase != collecting
}

// specDoc is the same two-phase-commit sketch as a verc3_model_v1 model
// spec: variables are typed declarations, rules are guarded commands in
// the spec expression language, and the two coordinator decisions are
// `choose` holes. Saved to a file, this is exactly what
// `verc3-synth -spec file.json` loads.
const specDoc = `{
  "format": "verc3_model_v1",
  "name": "two-phase-commit-spec",
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
	// Step 1: verify the complete (hole-free) protocol.
	res, err := mc.Check(&system{sketch: false}, mc.Options{RecordTrace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("complete model: verdict=%s states=%d\n", res.Verdict, res.Stats.VisitedStates)

	// Step 2: synthesize the sketch.
	out, err := core.Synthesize(&system{sketch: true}, core.Config{Mode: core.ModePrune})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: %d holes, %d/%d candidates evaluated, %d solution(s)\n",
		out.Stats.Holes, out.Stats.Evaluated, out.Stats.CandidateSpace, len(out.Solutions))
	for i := range out.Solutions {
		fmt.Printf("  solution: %s\n", out.Describe(i))
	}

	// Step 3: the same sketch as data. spec.Parse validates the document
	// (errors carry the JSON path of the offender) and compiles it onto
	// the same substrate the hand-written system runs on; the compiled
	// sketch synthesizes through the identical engine.
	m, err := spec.Parse([]byte(specDoc))
	if err != nil {
		log.Fatal(err)
	}
	specOut, err := core.Synthesize(m.System(), core.Config{Mode: core.ModePrune})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec-loaded sketch %q: %d holes, %d solution(s)\n",
		m.Name(), specOut.Stats.Holes, len(specOut.Solutions))
	for i := range specOut.Solutions {
		fmt.Printf("  solution: %s\n", specOut.Describe(i))
	}
}
