package spec_test

// Absolute pins for the committed specs under examples/specs. Every
// driver × visited backend × symmetry combination must report the same
// verdict, state count, transition count, depth and wildcard aborts, and
// the same nested-DFS counters; synthesis on the two sketches must
// discover the same holes, learn the same patterns and find the same
// solutions in every mode. The numbers are the ones the hand-written Go
// models of Figure 2, Peterson's algorithm and the token ring gave before
// the zoo was built from these files; the zoo-wide harnesses in internal/mc hold
// the zoo entries to the same answers. The CI workflow runs everything
// matching TestSpec as a dedicated step.

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

const specDir = "../../examples/specs"

// wildcardChooser makes every hole a wildcard, the same environment the mc
// equivalence harness uses: complete models never call Choose, and sketches
// explore the deterministic hole-free sub-space.
type wildcardChooser struct{}

func (wildcardChooser) Choose(string, []string) (int, error) { return 0, ts.ErrWildcard }

// counts is one safety run's pinned answer.
type counts struct {
	verdict                            mc.Verdict
	states, transitions, depth, aborts int
}

// pins maps every committed spec to its pinned answers: safety without and
// with symmetry reduction, then the liveness run's live and red states (the
// same under both settings) and its wildcard aborts without and with
// symmetry. The liveness verdict is the safety verdict.
var pins = []struct {
	file       string
	plain, sym counts
	live, red  int
	liveAborts [2]int
}{
	{"fig2.json", counts{mc.Unknown, 1, 0, 0, 1}, counts{mc.Unknown, 1, 0, 0, 1}, 0, 0, [2]int{1, 1}},
	{"mutex.json", counts{mc.Success, 30, 50, 8, 0}, counts{mc.Success, 16, 27, 8, 0}, 145, 85, [2]int{0, 0}},
	{"mutex-sketch.json", counts{mc.Unknown, 4, 4, 2, 4}, counts{mc.Unknown, 3, 3, 2, 3}, 14, 6, [2]int{32, 31}},
	{"tokenring.json", counts{mc.Success, 12, 12, 11, 0}, counts{mc.Success, 12, 12, 11, 0}, 90, 54, [2]int{0, 0}},
	{"tokenring-sketch.json", counts{mc.Unknown, 1, 0, 0, 1}, counts{mc.Unknown, 1, 0, 0, 1}, 5, 2, [2]int{8, 8}},
}

func loadSpec(t *testing.T, file string) *spec.Model {
	t.Helper()
	m, err := spec.LoadFile(filepath.Join(specDir, file))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkWildcard checks sys under an all-wildcard environment, so sketches
// explore their deterministic hole-free sub-space.
func checkWildcard(t *testing.T, sys ts.System, opt mc.Options) *mc.Result {
	t.Helper()
	res, err := mc.NewSession(sys, opt).Check(context.Background(), ts.NewEnv(wildcardChooser{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpecEquivalence checks every committed spec against its pins under
// {1, 8} workers × {flat, spill} × symmetry {off, on}, and its liveness
// counters under {flat, spill} × symmetry {off, on}.
func TestSpecEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(specDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(pins) {
		t.Fatalf("%d committed specs, %d pinned: pin every spec", len(files), len(pins))
	}
	for _, p := range pins {
		p := p
		t.Run(p.file, func(t *testing.T) {
			m := loadSpec(t, p.file)
			if got, want := m.Sketch(), p.plain.verdict == mc.Unknown; got != want {
				t.Fatalf("Sketch() = %v, want %v", got, want)
			}
			sys := m.System()
			for si, sym := range []bool{false, true} {
				want := []counts{p.plain, p.sym}[si]
				for _, workers := range []int{1, 8} {
					for _, backend := range []visited.Kind{visited.Flat, visited.Spill} {
						res := checkWildcard(t, sys, mc.Options{
							Symmetry: sym,
							Workers:  workers,
							Visited:  backend,
							SpillMem: 1, // floor: force flushes on even tiny spaces
							SpillDir: t.TempDir(),
						})
						got := counts{res.Verdict, res.Stats.VisitedStates, res.Stats.FiredTransitions,
							res.Stats.MaxDepth, res.Stats.WildcardAborts}
						if got != want {
							t.Errorf("symmetry=%v workers=%d visited=%v: %+v, want %+v", sym, workers, backend, got, want)
						}
					}
				}
				for _, backend := range []visited.Kind{visited.Flat, visited.Spill} {
					res := checkWildcard(t, sys, mc.Options{
						Liveness:    true,
						RecordTrace: true,
						Symmetry:    sym,
						Visited:     backend,
						SpillMem:    1,
						SpillDir:    t.TempDir(),
					})
					got := fmt.Sprintf("%v %d/%d aborts=%d cycle=%d", res.Verdict,
						res.Space.LiveStates, res.Space.RedStates, res.Stats.WildcardAborts, res.Space.CycleLen)
					want := fmt.Sprintf("%v %d/%d aborts=%d cycle=0", p.plain.verdict, p.live, p.red, p.liveAborts[si])
					if got != want {
						t.Errorf("liveness symmetry=%v visited=%v: %s, want %s", sym, backend, got, want)
					}
				}
			}
		})
	}
}

// TestSpecSynthesisEndToEnd runs full synthesis on both committed sketches
// in every mode, with and without symmetry reduction, and pins the holes in
// discovery order, the candidates evaluated, the patterns learned, the
// failures and every reverified solution with its state count.
func TestSpecSynthesisEndToEnd(t *testing.T) {
	type outcome struct {
		evaluated, patterns, failures int
	}
	cases := []struct {
		file  string
		holes string
		// prune is the outcome under both prune styles, naive under
		// ModeNaive.
		prune, naive outcome
		solutions    string
		// states is the solutions' verification state count without and
		// with symmetry.
		states [2]int
	}{
		{"mutex-sketch.json", "turn-write,exit-flag,after-crit",
			outcome{9, 4, 4}, outcome{8, 0, 7},
			"after-crit@Idle,exit-flag@clear,turn-write@other", [2]int{30, 16}},
		{"tokenring-sketch.json", "after-crit,pass-direction",
			outcome{5, 1, 1}, outcome{4, 0, 2},
			"after-crit@pass,pass-direction@next|after-crit@pass,pass-direction@prev", [2]int{12, 12}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			sys := loadSpec(t, tc.file).System()
			for _, cfg := range []core.Config{
				{Mode: core.ModePrune},
				{Mode: core.ModePrune, PruneStyle: core.PruneTraceGeneralized},
				{Mode: core.ModeNaive},
			} {
				for si, sym := range []bool{false, true} {
					cfg.MC = mc.Options{Symmetry: sym}
					tag := fmt.Sprintf("%v/%v symmetry=%v", cfg.Mode, cfg.PruneStyle, sym)
					res, err := core.Synthesize(sys, cfg)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if got := strings.Join(res.HoleNames, ","); got != tc.holes {
						t.Errorf("%s: holes %s, want %s", tag, got, tc.holes)
					}
					want := tc.prune
					if cfg.Mode == core.ModeNaive {
						want = tc.naive
					}
					if got := (outcome{int(res.Stats.Evaluated), res.Stats.Patterns, int(res.Stats.Failures)}); got != want {
						t.Errorf("%s: evaluated/patterns/failures %+v, want %+v", tag, got, want)
					}
					var sols []string
					for i, s := range res.Solutions {
						sols = append(sols, solutionString(res, i))
						if !s.Reverified || s.VisitedStates != tc.states[si] {
							t.Errorf("%s: solution %s reverified=%v with %d states, want %d",
								tag, solutionString(res, i), s.Reverified, s.VisitedStates, tc.states[si])
						}
					}
					sort.Strings(sols)
					if got := strings.Join(sols, "|"); got != tc.solutions {
						t.Errorf("%s: solutions %s, want %s", tag, got, tc.solutions)
					}
				}
			}
		})
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
