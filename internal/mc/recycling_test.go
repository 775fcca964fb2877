package mc_test

// Differential and safety tests for the successor lifecycle (ts.Recycler
// and ts.Pool): recycling must be a pure optimization — identical
// exploration results with it on or off — and recycled storage must never
// be reachable from anything the checker hands back (trace nodes,
// counterexample rendering). The CI workflow runs everything matching
// TestZooEquivalence as a dedicated job step with -count=1; the model-level
// recycling law (a churned pool never moves a held state) is internal/zoo's
// TestZooConformance.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// TestZooEquivalenceRecycling is the invariance check for the successor
// lifecycle: with recycling off (Options.NoRecycle), at either width,
// symmetry setting and trace setting, a check explores what the recycling
// base does. Recycling changes which storage a successor lands in, but it
// may not change what is explored.
func TestZooEquivalenceRecycling(t *testing.T) {
	var rows []mc.Options
	for _, workers := range []int{1, 8} {
		for _, symmetry := range []bool{false, true} {
			for _, trace := range []bool{false, true} {
				rows = append(rows, mc.Options{Workers: workers, Symmetry: symmetry, RecordTrace: trace, NoRecycle: true})
			}
		}
	}
	zooDiff(t, rows, nil)
}

// boundedNet wraps the MSI system with an extra invariant that fails once
// the network holds a few messages, forcing a counterexample deep enough
// that its trace spans several pooled allocations. Embedding the concrete
// *msi.System keeps its Recycler method promoted, so recycling stays
// active under the wrapper.
type boundedNet struct{ *msi.System }

func (b boundedNet) Invariants() []ts.Invariant {
	invs := b.System.Invariants()
	return append(invs[:len(invs):len(invs)], ts.Invariant{
		Name:  "bounded-net",
		Holds: func(s ts.State) bool { return s.(*msi.State).Net.Len() < 3 },
	})
}

// renderTrace renders a counterexample through everything a state shows:
// its key and its String form.
func renderTrace(steps []mc.TraceStep) []string {
	out := make([]string, len(steps))
	for i, st := range steps {
		out[i] = st.Rule + " :: " + st.State.Key() + " :: " + fmt.Sprint(st.State)
	}
	return out
}

// TestRecycledStorageNeverAliasesTraces is the aliasing safety net for the
// ownership rules: a recorded counterexample must render identically before
// and after the system's pool has churned through many further
// explorations. If any trace node's state shared storage with a recycled
// successor (e.g. a network message slice reused by CopyFrom), the churn
// would overwrite it and the re-rendered trace would differ.
func TestRecycledStorageNeverAliasesTraces(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sys   ts.System
		env   *ts.Env
		churn func(i int) mc.Options
	}{
		// The wrapped MSI system fails its bounded-net invariant each time
		// (a Failure verdict, not an error); traceless, recycle-heavy runs
		// reuse every piece of storage the pool can reach.
		{"msi", boundedNet{msi.New(msi.Config{Caches: 2})}, nil, func(i int) mc.Options { return mc.Options{Symmetry: i%2 == 0} }},
		// Resolving turn-write to the wrong action ("me") violates mutual
		// exclusion, and the checker records a minimal counterexample.
		{"mutex-sketch", zooSystem(t, "peterson-sketch"), ts.NewEnv(wrongTurnChooser{}), func(int) mc.Options { return mc.Options{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := checkEnv(tc.sys, mc.Options{RecordTrace: true}, tc.env, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != mc.Failure || res.Failure == nil || len(res.Failure.Trace) == 0 {
				t.Fatalf("expected a failure with a trace, got %v", res.Verdict)
			}
			before := renderTrace(res.Failure.Trace)
			for i := 0; i < 3; i++ {
				if _, err := checkEnv(tc.sys, tc.churn(i), tc.env, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i, after := range renderTrace(res.Failure.Trace) {
				if before[i] != after {
					t.Fatalf("trace step %d changed after pool churn:\n before: %s\n after:  %s", i, before[i], after)
				}
			}
		})
	}
}

// wrongTurnChooser picks Peterson's incorrect turn-write action ("me") and
// the correct choice everywhere else.
type wrongTurnChooser struct{}

func (wrongTurnChooser) Choose(hole string, actions []string) (int, error) {
	if hole == "turn-write" {
		return 1, nil
	}
	return 0, nil
}

// TestParallelRecycleStress exercises the parallel driver's per-worker
// recycling under the race detector: several concurrent explorations share
// one system instance — and therefore one successor pool — each spreading a
// frontier over multiple workers that recycle rejected duplicates and
// expanded states from every goroutine. Run with -race in CI; without the
// detector it still cross-checks the state counts.
func TestParallelRecycleStress(t *testing.T) {
	sys, err := zoo.Get("msi-complete", zoo.Params{Caches: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mc.Check(sys, mc.Options{Symmetry: true, NoRecycle: true})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := mc.Check(sys, mc.Options{Symmetry: true, Workers: 8})
			if err != nil {
				errs[r] = err
				return
			}
			if res.Verdict != want.Verdict || res.Stats.VisitedStates != want.Stats.VisitedStates ||
				res.Stats.FiredTransitions != want.Stats.FiredTransitions {
				errs[r] = fmt.Errorf("run %d: got %v/%d/%d, want %v/%d/%d", r,
					res.Verdict, res.Stats.VisitedStates, res.Stats.FiredTransitions,
					want.Verdict, want.Stats.VisitedStates, want.Stats.FiredTransitions)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestLifecycleAllocRegression pins the per-state allocation cost of
// exploration: on msi-complete (3 caches, symmetry on, traceless, flat
// visited backend — the synthesis configuration) rule records and pooled
// successors must keep it at or below 1.5 mallocs per visited state.
// Measured at 0.4 — the check's fixed cost and the pool filling up, spread
// over 1,097 states — against ~5 when transitions were closures; the bar
// leaves headroom for runtime noise, not for regressions. The no-recycle
// arm is logged so a local run shows what recycling buys. Under -race only
// the ceiling is skipped (see raceEnabled): the runs, their verdicts and the
// pool-engagement check still happen.
func TestLifecycleAllocRegression(t *testing.T) {
	run := func(noRecycle bool) (*mc.Result, uint64) {
		sys, err := zoo.Get("msi-complete", zoo.Params{Caches: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, mallocs := checkMallocs(t, sys, mc.Options{Symmetry: true, NoRecycle: noRecycle})
		if res.Verdict != mc.Success {
			t.Fatalf("noRecycle=%v: verdict %v", noRecycle, res.Verdict)
		}
		return res, mallocs
	}
	full, mallocs := run(false)
	states := float64(full.Stats.VisitedStates)
	perState := float64(mallocs) / states
	_, m := run(true)
	t.Logf("no recycling: %.1f mallocs/state", float64(m)/states)
	t.Logf("full lifecycle: %.1f mallocs/state (pool %d hits / %d misses, %d recycled)",
		perState, full.Space.PoolHits, full.Space.PoolMisses, full.Space.Recycled)
	if perState > 1.5 && !raceEnabled {
		t.Errorf("mallocs/state = %.1f, want <= 1.5 (successor lifecycle regression)", perState)
	}
	if full.Space.PoolHits == 0 || full.Space.Recycled == 0 {
		t.Errorf("pool counters empty (hits=%d recycled=%d) — lifecycle not engaged?",
			full.Space.PoolHits, full.Space.Recycled)
	}
}

// checkMallocs runs one check of sys and returns its result with the heap
// allocations made meanwhile, from one runtime.ReadMemStats pair around the
// call. The count is process-wide, so callers keep other goroutines quiet.
func checkMallocs(t *testing.T, sys ts.System, opt mc.Options) (*mc.Result, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := mc.Check(sys, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return res, after.Mallocs - before.Mallocs
}
