package core_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/toy"
)

// TestSplitParallelism pins the budget-splitting policy: cross-candidate
// workers fill first, the remainder becomes intra-check exploration
// workers, and the product never exceeds the budget.
func TestSplitParallelism(t *testing.T) {
	cases := []struct {
		budget, pending            int
		wantWorkers, wantMCWorkers int
	}{
		{budget: 8, pending: 100, wantWorkers: 8, wantMCWorkers: 1},
		{budget: 8, pending: 8, wantWorkers: 8, wantMCWorkers: 1},
		{budget: 8, pending: 2, wantWorkers: 2, wantMCWorkers: 4},
		{budget: 8, pending: 1, wantWorkers: 1, wantMCWorkers: 8},
		{budget: 8, pending: 3, wantWorkers: 3, wantMCWorkers: 2},
		{budget: 1, pending: 100, wantWorkers: 1, wantMCWorkers: 1},
		{budget: 0, pending: 0, wantWorkers: 1, wantMCWorkers: 1},
	}
	for _, c := range cases {
		w, m := core.SplitParallelism(c.budget, c.pending)
		if w != c.wantWorkers || m != c.wantMCWorkers {
			t.Errorf("SplitParallelism(%d, %d) = (%d, %d), want (%d, %d)",
				c.budget, c.pending, w, m, c.wantWorkers, c.wantMCWorkers)
		}
		if c.budget > 0 && w*m > c.budget {
			t.Errorf("SplitParallelism(%d, %d): product %d exceeds budget", c.budget, c.pending, w*m)
		}
	}
}

// TestMCWorkersRejectedOnMCOptions checks the engine owns the model
// checker's worker knob.
func TestMCWorkersRejectedOnMCOptions(t *testing.T) {
	_, err := core.Synthesize(toy.Figure2(), core.Config{MC: mc.Options{Workers: 4}})
	if err == nil || !strings.Contains(err.Error(), "MCWorkers") {
		t.Fatalf("err = %v, want MC.Workers rejection pointing at Config.MCWorkers", err)
	}
}

// canonicalSolutions renders a result's solutions in an order- and
// hole-index-independent form: with MCWorkers > 1 holes may be discovered
// in a scheduling-dependent order inside a run, so assignment vectors are
// only comparable after mapping indices back to hole/action names.
func canonicalSolutions(res *core.Result) []string {
	out := make([]string, 0, len(res.Solutions))
	for _, sol := range res.Solutions {
		parts := make([]string, 0, len(sol.Assign))
		for i, a := range sol.Assign {
			if a == core.Wildcard {
				parts = append(parts, res.HoleNames[i]+"@?")
				continue
			}
			parts = append(parts, res.HoleNames[i]+"@"+res.HoleActions[i][a])
		}
		sort.Strings(parts)
		parts = append(parts, fmt.Sprintf("states=%d", sol.VisitedStates))
		out = append(out, strings.Join(parts, ","))
	}
	sort.Strings(out)
	return out
}

// TestMCWorkersMatchesSequentialSynthesis checks intra-check parallelism is
// invisible to the synthesis outcome: the same solutions (compared by hole
// name, since discovery order may differ) with the same verifying state
// counts as the all-sequential run.
func TestMCWorkersMatchesSequentialSynthesis(t *testing.T) {
	run := func(mcWorkers int) *core.Result {
		sys := msi.New(msi.Config{Caches: 2, Variant: msi.Small})
		res, err := core.Synthesize(sys, core.Config{
			Mode:      core.ModePrune,
			MCWorkers: mcWorkers,
			MC:        mc.Options{Symmetry: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := canonicalSolutions(run(1))
	par := canonicalSolutions(run(4))
	if len(base) != len(par) {
		t.Fatalf("solutions: %d vs %d\nseq: %v\npar: %v", len(base), len(par), base, par)
	}
	for i := range base {
		if base[i] != par[i] {
			t.Errorf("solution %d differs:\nseq: %s\npar: %s", i, base[i], par[i])
		}
	}
}

// TestDispatchAllocs pins what one dispatch allocates, model checker
// included: MSI-large at one worker — the bench workload synth-large, cut
// off after 6,000 candidates — must stay at or below 20 mallocs per
// dispatch. A worker keeps its mc.Session, chooser and environment from
// candidate to candidate, successors are rule records fired into pooled
// states, and a failing run hands its frontier back to the pool, so a
// dispatch is left with its Result, its failure, its initial-state slice
// and its pruning pattern: about 5, against 375 when every dispatch built
// its own checker and every transition its own closure.
func TestDispatchAllocs(t *testing.T) {
	sys := msi.New(msi.Config{Caches: 2, Variant: msi.Large})
	cfg := core.Config{Mode: core.ModePrune, MC: mc.Options{Symmetry: true}, MaxEvaluations: 6000}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := core.Synthesize(sys, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated != cfg.MaxEvaluations {
		t.Fatalf("evaluated %d candidates, want %d", res.Stats.Evaluated, cfg.MaxEvaluations)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.Evaluated)
	t.Logf("%.1f mallocs per dispatch over %d dispatches of %.0f states",
		per, res.Stats.Evaluated, float64(res.Stats.TotalVisitedStates)/float64(res.Stats.Evaluated))
	if per > 20 && !raceEnabled {
		t.Errorf("%.1f mallocs per dispatch, want <= 20", per)
	}
}
