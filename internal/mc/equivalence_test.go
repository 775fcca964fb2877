package mc_test

// The zoo-wide differential harness: each TestZooEquivalence… test owns one
// configuration axis, lists the option rows it runs, and hands them to
// zooDiff, which checks every zoo entry in each row and compares the result
// with the one-worker BFS flat run. Between them the tests run each
// combination once. The CI workflow runs everything matching
// TestZooEquivalence as a dedicated job step.

import (
	"fmt"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/trace"
	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
	"verc3/internal/visited"
	"verc3/internal/zoo"
)

// zooRun checks the named zoo entry at two caches under an all-wildcard
// environment, in which a sketch explores a deterministic sub-space (every
// hole aborts its branch). A spill row gets a RAM budget at the floor and
// its own directory, so even the zoo's small spaces cross the disk tier and
// the per-level merges; a row's collector stands for a fresh one. zooRun
// returns the system and the options it checked.
func zooRun(t *testing.T, name string, opt mc.Options) (ts.System, mc.Options, *mc.Result) {
	t.Helper()
	sys, err := zoo.Get(name, zoo.Params{Caches: 2})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Visited == visited.Spill {
		opt.SpillMem, opt.SpillDir = 1, t.TempDir()
	}
	if opt.Obs != nil {
		opt.Obs = obs.New()
	}
	res, err := checkEnv(sys, opt, ts.NewEnv(wildcardChooser{}), nil)
	if err != nil {
		t.Fatalf("%s: %v", describe(opt), err)
	}
	return sys, opt, res
}

// describe names a row by the axes the differential tests vary.
func describe(opt mc.Options) string {
	return fmt.Sprintf("workers=%d symmetry=%v trace=%v noRecycle=%v visited=%v dfs=%v obs=%v liveness=%v",
		opt.Workers, opt.Symmetry, opt.RecordTrace, opt.NoRecycle, opt.Visited, opt.Order == mc.DFS, opt.Obs != nil, opt.Liveness)
}

// zooBases holds the one-worker BFS flat run of each zoo entry at each
// symmetry setting, made once per test binary by the first row that needs
// it. The tests that share it do not run in parallel.
var zooBases = map[string]*mc.Result{}

// zooDiff checks every zoo entry in each of rows, calls check (when not
// nil) on each result, and requires the verdict and Stats of the base at
// the row's symmetry setting — depth aside for a DFS row, which visits in
// another order; a DFS row runs only where the base passes, since a failing
// or wildcard-cut search stops at an order-dependent point. Every run must
// also count its states in Space, keep one trace node per state exactly
// when it records traces, and report the backend it ran on with a positive
// footprint.
func zooDiff(t *testing.T, rows []mc.Options, check func(*testing.T, ts.System, mc.Options, *mc.Result)) {
	for _, name := range zoo.Names() {
		t.Run(name, func(t *testing.T) {
			for _, row := range rows {
				base, key := mc.Options{Symmetry: row.Symmetry, Workers: 1}, fmt.Sprint(name, row.Symmetry)
				if zooBases[key] == nil {
					_, _, zooBases[key] = zooRun(t, name, base)
				}
				want, res := zooBases[key], zooBases[key]
				if row.Order == mc.DFS && want.Verdict != mc.Success {
					t.Skipf("BFS verdict %v: not a complete passing entry", want.Verdict)
				}
				if row != base {
					var sys ts.System
					sys, row, res = zooRun(t, name, row)
					if check != nil {
						check(t, sys, row, res)
					}
				}
				tag, nodes := describe(row), 0
				if row.RecordTrace {
					nodes = res.Stats.VisitedStates
				}
				if res.Space.States != res.Stats.VisitedStates || res.Space.TraceNodes != nodes {
					t.Errorf("%s: Space counts %d states and %d trace nodes for %d states",
						tag, res.Space.States, res.Space.TraceNodes, res.Stats.VisitedStates)
				}
				if res.Space.Backend != row.Visited.String() || res.Space.VisitedBytes <= 0 {
					t.Errorf("%s: Space.Backend = %q, VisitedBytes = %d", tag, res.Space.Backend, res.Space.VisitedBytes)
				}
				got, exp := res.Stats, want.Stats
				if row.Order == mc.DFS {
					got.MaxDepth, exp.MaxDepth = 0, 0
				}
				if res.Verdict != want.Verdict || got != exp {
					t.Errorf("%s: %v %+v, want %v %+v", tag, res.Verdict, got, want.Verdict, exp)
				}
			}
		})
	}
}

// TestZooEquivalenceTraceOnOff: the trace store is bookkeeping only and
// must never influence the search, at either width and symmetry setting.
func TestZooEquivalenceTraceOnOff(t *testing.T) {
	zooDiff(t, []mc.Options{
		{Symmetry: true, Workers: 1, RecordTrace: true}, {Symmetry: true, Workers: 8, RecordTrace: true},
		{Workers: 1, RecordTrace: true}, {Workers: 8, RecordTrace: true},
	}, nil)
}

// TestZooEquivalenceVisitedBackends: the storage layer decides memory
// layout, never search semantics, so the spill tier explores what the flat
// table does at 1 and 8 workers. That the flat sequential run counts what
// exact state identity counts is TestZooAppendKeyConsistency's job (the
// exactness oracle).
func TestZooEquivalenceVisitedBackends(t *testing.T) {
	zooDiff(t, []mc.Options{
		{Symmetry: true, Workers: 1, Visited: visited.Spill}, {Symmetry: true, Workers: 8, Visited: visited.Spill},
	}, nil)
}

// TestZooEquivalenceDFS puts search order on the differential axis: DFS
// runs the same expand as BFS, as a stack instead of levels, so it must
// count the same states and transitions — on the flat table and through
// the spill tier, which DFS never tells about level boundaries and which
// must therefore bound its run files by itself.
func TestZooEquivalenceDFS(t *testing.T) {
	zooDiff(t, []mc.Options{
		{Symmetry: true, Workers: 1, Order: mc.DFS}, {Symmetry: true, Workers: 1, Order: mc.DFS, Visited: visited.Spill},
	}, nil)
}

// TestFlatVisitedBytesReduction pins the flat backend's measured
// visited-set footprint on msi-complete (3 caches, symmetry on) against
// two recorded baselines, since neither of the layouts it replaced exists
// any more. The layout is deterministic (same fingerprints, same stripe
// split), so regressing the load cap or re-inflating the stripe padding
// trips one of them:
//
//   - With 4 workers (the striped table), the Robin Hood rework (15/16
//     load cap + one-cache-line stripes) must stay at least 8% below the
//     22.6 B/state the linear-probing table it replaced measured on this
//     configuration (the figure the experiment log records for it).
//   - With one worker, flat must stay below the 16.8 B/state the Go-map
//     backend's modelled footprint came to on this configuration, measured
//     at the commit that deleted that backend.
//
// Verdict/state equality across backends is covered by
// TestZooEquivalenceVisitedBackends; this test is only about bytes.
func TestFlatVisitedBytesReduction(t *testing.T) {
	run := func(workers int) float64 {
		res, err := mc.Check(zooSystem(t, "msi-complete"), mc.Options{Symmetry: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success {
			t.Fatalf("workers=%d: verdict %v", workers, res.Verdict)
		}
		return float64(res.Space.VisitedBytes) / float64(res.Space.States)
	}

	const linearProbing = 22.6
	flatPar := run(4)
	t.Logf("4 workers: flat %.1f B/state vs %.1f for linear probing (%.0f%% reduction)",
		flatPar, linearProbing, 100*(1-flatPar/linearProbing))
	if flatPar > 0.92*linearProbing {
		t.Errorf("parallel flat = %.1f B/state, want ≥8%% below the pre-Robin-Hood %.1f", flatPar, linearProbing)
	}

	const mapSequential = 16.8
	flatSeq := run(1)
	t.Logf("1 worker: flat %.1f B/state vs %.1f for Go maps (%.0f%% reduction)",
		flatSeq, mapSequential, 100*(1-flatSeq/mapSequential))
	if flatSeq >= mapSequential {
		t.Errorf("sequential flat = %.1f B/state, want below the Go-map backend's %.1f", flatSeq, mapSequential)
	}
}

// TestSpillStressBoundedRAM is the acceptance test for the disk-spilling
// tier: the zoo's large-configuration stress entry (msi-complete-4,
// unreduced: 105,752 states, ~846KiB of fingerprints) explored with an
// in-RAM tier budget of 256KiB — far below the fingerprint volume — must
// stay exact and report verdict, state count and transition count
// identical to the Flat backend, at 1 and 8 workers: RAM stays near the
// budget while the bulk of the visited set lives in sorted run files.
func TestSpillStressBoundedRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("~100k-state exploration with disk I/O; run without -short")
	}
	flat, err := mc.Check(zooSystem(t, "msi-complete-4"), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Verdict != mc.Success {
		t.Fatalf("flat verdict = %v", flat.Verdict)
	}
	const budget = 256 << 10
	for _, workers := range []int{1, 8} {
		sp, err := mc.Check(zooSystem(t, "msi-complete-4"), mc.Options{
			Workers:  workers,
			Visited:  visited.Spill,
			SpillMem: budget,
			SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sp.Verdict != flat.Verdict ||
			sp.Stats.VisitedStates != flat.Stats.VisitedStates ||
			sp.Stats.FiredTransitions != flat.Stats.FiredTransitions {
			t.Errorf("workers=%d: spill %v/%d states/%d transitions, flat %v/%d/%d",
				workers, sp.Verdict, sp.Stats.VisitedStates, sp.Stats.FiredTransitions,
				flat.Verdict, flat.Stats.VisitedStates, flat.Stats.FiredTransitions)
		}
		if sp.Space.SpilledBytes == 0 || sp.Space.SpillRuns == 0 {
			t.Errorf("workers=%d: nothing spilled (SpilledBytes=%d runs=%d) — budget not enforced",
				workers, sp.Space.SpilledBytes, sp.Space.SpillRuns)
		}
		// The in-RAM footprint (tier tables + stripe structs + fence
		// index) must stay near the budget; 2× covers the fixed floors.
		if sp.Space.VisitedBytes > 2*budget {
			t.Errorf("workers=%d: in-RAM visited bytes = %d, want near the %d budget",
				workers, sp.Space.VisitedBytes, budget)
		}
		t.Logf("workers=%d: %d states, RAM %d B, spilled %d B in %d run(s)",
			workers, sp.Stats.VisitedStates, sp.Space.VisitedBytes,
			sp.Space.SpilledBytes, sp.Space.SpillRuns)
	}
}

// TestZooEquivalenceFailureReplay checks that a failing system still
// yields a valid, replayable counterexample when traces are on — under
// both drivers — and that with traces off the same failure is reported
// with a nil trace (the memory saving must not change the verdict).
func TestZooEquivalenceFailureReplay(t *testing.T) {
	for _, workers := range []int{1, 8} {
		g := line(6, true).System()
		res, err := mc.Check(g, mc.Options{RecordTrace: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
			t.Fatalf("workers=%d: got %v / %+v, want invariant failure", workers, res.Verdict, res.Failure)
		}
		last := replayTrace(t, g, res.Failure)
		for _, inv := range g.Invariants() {
			if inv.Name == res.Failure.Name && inv.Holds(last) {
				t.Errorf("workers=%d: final trace state does not violate %q", workers, res.Failure.Name)
			}
		}

		off, err := mc.Check(line(6, true).System(), mc.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if off.Verdict != mc.Failure || off.Failure.Kind != mc.FailInvariant {
			t.Fatalf("workers=%d traces off: got %v / %+v", workers, off.Verdict, off.Failure)
		}
		if off.Failure.Trace != nil {
			t.Errorf("workers=%d: trace recorded with RecordTrace off", workers)
		}
		if off.Space.TraceNodes != 0 {
			t.Errorf("workers=%d: %d trace nodes with RecordTrace off", workers, off.Space.TraceNodes)
		}
	}
}

// TestZooEquivalenceTraceFormatGolden pins the rendered sequential BFS
// counterexample to the exact pre-refactor bytes: the trace-store
// representation must not change what a designer sees.
func TestZooEquivalenceTraceFormatGolden(t *testing.T) {
	//     0 → 1 → 2 → 3(bad)
	//     0 ----------→ 3 (direct)
	g := (&tstest.Graph{Name: "twopaths", Nodes: []tstest.Node{
		{Plain: []int{1, 3}},
		{Plain: []int{2}},
		{Plain: []int{3}},
		{Bad: true},
	}}).System()
	res, err := mc.Check(g, mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	const want = "invariant violation: no-bad-state\n" +
		"  0. (initial state)\n" +
		"     v=0\n" +
		"  1. n0→n3\n" +
		"     v=3\n"
	if got := trace.Format(res.Failure, trace.Options{ShowStates: true}); got != want {
		t.Errorf("trace rendering changed:\n got: %q\nwant: %q", got, want)
	}
}

// TestNoTraceMemoryReduction pins the PR's acceptance criterion: with
// RecordTrace off, exploring the complete MSI protocol allocates no
// per-state trace/node entries and retains at least 40% fewer bytes per
// state than the trace-recording configuration (which matches what the
// pre-refactor node table always paid, trace or no trace).
func TestNoTraceMemoryReduction(t *testing.T) {
	_, _, on := zooRun(t, "msi-complete", mc.Options{Symmetry: true, RecordTrace: true})
	_, _, off := zooRun(t, "msi-complete", mc.Options{Symmetry: true})
	if on.Verdict != mc.Success || off.Verdict != mc.Success {
		t.Fatalf("verdicts: on=%v off=%v", on.Verdict, off.Verdict)
	}
	if off.Space.TraceNodes != 0 {
		t.Fatalf("RecordTrace off allocated %d per-state node entries", off.Space.TraceNodes)
	}
	states := float64(on.Space.States)
	perOn := float64(on.Space.BytesRetained) / states
	perOff := float64(off.Space.BytesRetained) / states
	t.Logf("bytes retained per state: trace on %.1f, trace off %.1f (%.0f%% reduction)",
		perOn, perOff, 100*(1-perOff/perOn))
	if perOff > 0.6*perOn {
		t.Errorf("bytes/state with traces off = %.1f, want <= 60%% of trace-on %.1f", perOff, perOn)
	}
}

// TestZooEquivalenceLiveness is the differential harness for the nested-DFS
// liveness driver: for every zoo entry carrying liveness goals, the verdict,
// cycle presence, and the NDFS product-state counts must be identical across
// visited backends (flat/spill) × symmetry on/off × 1 or 4 workers × BFS or
// DFS order. The symmetry axis is the sharp one: the NDFS phase deliberately
// keys raw product encodings even when the safety pass reduces, so its counts
// must not move when symmetry flips. The worker and order axes are there
// because the phase runs on worker 0 of whatever session the safety pass
// built, and must not see what that pass left in it.
// Failing entries must additionally report byte-identical lassos whose
// replay re-fires the recorded transition names and closes the cycle — the
// fingerprint-collision detector.
func TestZooEquivalenceLiveness(t *testing.T) {
	zooLiveness(t, func(t *testing.T, name string) {
		var base string
		for _, backend := range []visited.Kind{visited.Flat, visited.Spill} {
			for _, symmetry := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
						sys, row, res := zooRun(t, name, mc.Options{Liveness: true, RecordTrace: true,
							Visited: backend, Symmetry: symmetry, Workers: workers, Order: order})
						if res.Verdict == mc.Failure && res.Failure.Kind == mc.FailLiveness && !zoo.IsSketch(name) {
							replayLasso(t, sys, res.Failure)
						}
						if got := lasso(res); base == "" {
							base = got
						} else if got != base {
							t.Errorf("%s:\n got %s\nwant %s", describe(row), got, base)
						}
					}
				}
			}
		}
	})
}

// lasso is a liveness run's answer as the differential harness compares it:
// the verdict, the NDFS product-state counts — which key unreduced product
// encodings, so they are invariant across every axis, symmetry included —
// the cycle length and, for a lasso, its goal, cycle start and every step.
func lasso(res *mc.Result) string {
	out := fmt.Sprintf("%v ndfs=%d+%dred cycle=%d", res.Verdict, res.Space.LiveStates, res.Space.RedStates, res.Space.CycleLen)
	if f := res.Failure; f != nil && f.Kind == mc.FailLiveness {
		out += fmt.Sprintf(" lasso %q start=%d", f.Name, f.CycleStart)
		for _, step := range f.Trace {
			out += "\n  " + step.Rule + " :: " + step.State.Key()
		}
	}
	return out
}

// zooLiveness runs f on every zoo entry that carries liveness goals, bar
// the 4-cache stress entry, pinned for backend benchmarks, whose liveness
// product adds nothing the 2-cache run does not.
func zooLiveness(t *testing.T, f func(t *testing.T, name string)) {
	for _, name := range zoo.Names() {
		if name == "msi-complete-4" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			sys, err := zoo.Get(name, zoo.Params{Caches: 2})
			if err != nil {
				t.Fatal(err)
			}
			if lr, ok := sys.(ts.LivenessReporter); !ok || len(lr.LivenessGoals()) == 0 {
				t.Skip("no liveness goals")
			}
			f(t, name)
		})
	}
}
