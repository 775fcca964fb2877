package spec_test

// Differential tests pinning spec-loaded systems to their hand-written zoo
// twins: every committed spec under examples/specs must explore the exact
// same state space — verdict, state count, transition count, depth, wildcard
// aborts, and the NDFS liveness counters — across both drivers and the
// {flat, spill} visited backends. This is the contract that lets the spec
// frontend replace compiled-in models without changing a single reported
// number. The CI workflow runs everything matching TestSpec as a dedicated
// step.

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
	"verc3/internal/visited"
	"verc3/internal/zoo"
)

const specDir = "../../examples/specs"

// wildcardChooser makes every hole a wildcard, the same environment the mc
// equivalence harness uses: complete models never call Choose, and sketches
// explore the deterministic hole-free sub-space.
type wildcardChooser struct{}

func (wildcardChooser) Choose(string, []string) (int, error) { return 0, ts.ErrWildcard }

// pairs maps every committed spec to its hand-written zoo twin.
var pairs = []struct {
	file string
	zoo  string
}{
	{"mutex.json", "peterson"},
	{"mutex-sketch.json", "peterson-sketch"},
	{"tokenring.json", "token-ring"},
}

func loadSpec(t *testing.T, file string) *spec.Model {
	t.Helper()
	m, err := spec.LoadFile(filepath.Join(specDir, file))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSpecEquivalence is the acceptance gate for the spec frontend: for
// every committed spec, the compiled system and its zoo twin report
// identical exploration statistics under every driver × backend combination,
// and identical nested-DFS numbers on the liveness axis.
func TestSpecEquivalence(t *testing.T) {
	for _, pair := range pairs {
		pair := pair
		t.Run(pair.file, func(t *testing.T) {
			m := loadSpec(t, pair.file)
			if got, want := m.Sketch(), zoo.IsSketch(pair.zoo); got != want {
				t.Fatalf("Sketch() = %v, zoo.IsSketch(%q) = %v", got, pair.zoo, want)
			}

			type combo struct {
				workers int
				backend visited.Kind
			}
			for _, cb := range []combo{
				{1, visited.Flat}, {1, visited.Spill},
				{8, visited.Flat}, {8, visited.Spill},
			} {
				opt := mc.Options{
					Symmetry: true,
					Env:      ts.NewEnv(wildcardChooser{}),
					Workers:  cb.workers,
					Visited:  cb.backend,
					SpillMem: 1, // floor: force flushes on even tiny spaces
					SpillDir: t.TempDir(),
				}
				hand := check(t, pair.zoo, opt)
				got, err := mc.Check(m.System(), opt)
				if err != nil {
					t.Fatalf("workers=%d visited=%v: %v", cb.workers, cb.backend, err)
				}
				tag := "safety"
				compareRuns(t, tag, cb.workers, cb.backend, got, hand)
			}

			if len(m.Spec().Liveness) == 0 {
				return
			}
			for _, backend := range []visited.Kind{visited.Flat, visited.Spill} {
				opt := mc.Options{
					Liveness:    true,
					RecordTrace: true,
					Symmetry:    true,
					Env:         ts.NewEnv(wildcardChooser{}),
					Visited:     backend,
					SpillMem:    1,
					SpillDir:    t.TempDir(),
				}
				hand := check(t, pair.zoo, opt)
				got, err := mc.Check(m.System(), opt)
				if err != nil {
					t.Fatalf("liveness visited=%v: %v", backend, err)
				}
				compareRuns(t, "liveness", 1, backend, got, hand)
				if got.Space.LiveStates != hand.Space.LiveStates || got.Space.RedStates != hand.Space.RedStates {
					t.Errorf("visited=%v: ndfs states %d+%dred, want %d+%dred", backend,
						got.Space.LiveStates, got.Space.RedStates, hand.Space.LiveStates, hand.Space.RedStates)
				}
				if got.Space.CycleLen != hand.Space.CycleLen {
					t.Errorf("visited=%v: cycle length %d, want %d", backend, got.Space.CycleLen, hand.Space.CycleLen)
				}
				gotCycle := got.Failure != nil && len(got.Failure.Trace) > 0
				handCycle := hand.Failure != nil && len(hand.Failure.Trace) > 0
				if gotCycle != handCycle {
					t.Errorf("visited=%v: cycle presence %v, want %v", backend, gotCycle, handCycle)
				}
				if gotCycle && handCycle {
					if got.Failure.Name != hand.Failure.Name || got.Failure.CycleStart != hand.Failure.CycleStart ||
						len(got.Failure.Trace) != len(hand.Failure.Trace) {
						t.Errorf("visited=%v: lasso %q start=%d steps=%d, want %q start=%d steps=%d", backend,
							got.Failure.Name, got.Failure.CycleStart, len(got.Failure.Trace),
							hand.Failure.Name, hand.Failure.CycleStart, len(hand.Failure.Trace))
					} else {
						for i, step := range got.Failure.Trace {
							if step.Rule != hand.Failure.Trace[i].Rule {
								t.Errorf("visited=%v: lasso diverges at step %d: %q vs %q", backend,
									i, step.Rule, hand.Failure.Trace[i].Rule)
								break
							}
						}
					}
				}
			}
		})
	}
}

func check(t *testing.T, zooName string, opt mc.Options) *mc.Result {
	t.Helper()
	sys, err := zoo.Get(zooName, zoo.Params{Caches: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Check(sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func compareRuns(t *testing.T, tag string, workers int, backend visited.Kind, got, want *mc.Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Errorf("%s workers=%d visited=%v: verdict %v, want %v", tag, workers, backend, got.Verdict, want.Verdict)
	}
	if got.Stats.VisitedStates != want.Stats.VisitedStates {
		t.Errorf("%s workers=%d visited=%v: states %d, want %d", tag, workers, backend, got.Stats.VisitedStates, want.Stats.VisitedStates)
	}
	if got.Stats.FiredTransitions != want.Stats.FiredTransitions {
		t.Errorf("%s workers=%d visited=%v: transitions %d, want %d", tag, workers, backend, got.Stats.FiredTransitions, want.Stats.FiredTransitions)
	}
	if got.Stats.MaxDepth != want.Stats.MaxDepth {
		t.Errorf("%s workers=%d visited=%v: depth %d, want %d", tag, workers, backend, got.Stats.MaxDepth, want.Stats.MaxDepth)
	}
	if got.Stats.WildcardAborts != want.Stats.WildcardAborts {
		t.Errorf("%s workers=%d visited=%v: aborts %d, want %d", tag, workers, backend, got.Stats.WildcardAborts, want.Stats.WildcardAborts)
	}
}

// TestSpecSynthesisEndToEnd runs full synthesis on the committed mutex
// sketch spec and pins the outcome against the hand-written peterson
// sketch: same holes in the same discovery order, the same 2·2·2 = 8
// candidate space, and the single reverified Peterson solution.
func TestSpecSynthesisEndToEnd(t *testing.T) {
	m := loadSpec(t, "mutex-sketch.json")
	if !m.Sketch() {
		t.Fatal("mutex-sketch.json did not load as a sketch")
	}
	run := func(sys ts.System) *core.Result {
		t.Helper()
		res, err := core.Synthesize(sys, core.Config{MC: mc.Options{Symmetry: true}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	hand, err := zoo.Get("peterson-sketch", zoo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	want := run(hand)
	got := run(m.System())

	if strings.Join(got.HoleNames, ",") != strings.Join(want.HoleNames, ",") {
		t.Fatalf("holes %v, want %v", got.HoleNames, want.HoleNames)
	}
	space := 1
	for i, acts := range got.HoleActions {
		space *= len(acts)
		if strings.Join(acts, ",") != strings.Join(want.HoleActions[i], ",") {
			t.Errorf("hole %q actions %v, want %v", got.HoleNames[i], acts, want.HoleActions[i])
		}
	}
	if space != 8 {
		t.Errorf("candidate space %d, want 8", space)
	}
	if len(got.Solutions) != 1 || len(want.Solutions) != 1 {
		t.Fatalf("solutions: spec %d, hand-written %d, want 1 each", len(got.Solutions), len(want.Solutions))
	}
	if gotSol, wantSol := solutionString(got, 0), solutionString(want, 0); gotSol != wantSol {
		t.Errorf("solution %s, want %s", gotSol, wantSol)
	}
	if wantSol := "after-crit@Idle,exit-flag@clear,turn-write@other"; solutionString(got, 0) != wantSol {
		t.Errorf("solution %s, want %s", solutionString(got, 0), wantSol)
	}
	if !got.Solutions[0].Reverified {
		t.Error("spec solution not reverified")
	}
	if got.Solutions[0].VisitedStates != want.Solutions[0].VisitedStates {
		t.Errorf("solution verification states %d, want %d",
			got.Solutions[0].VisitedStates, want.Solutions[0].VisitedStates)
	}
}

// solutionString renders solution i hole-name-keyed and order-independent.
func solutionString(res *core.Result, i int) string {
	parts := make([]string, 0, len(res.Solutions[i].Assign))
	for h, a := range res.Solutions[i].Assign {
		if a == core.Wildcard {
			parts = append(parts, res.HoleNames[h]+"@?")
			continue
		}
		parts = append(parts, res.HoleNames[h]+"@"+res.HoleActions[h][a])
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
