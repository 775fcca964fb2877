package mc_test

// Cross-driver, cross-configuration equivalence tests for the
// trace-optional exploration representation. The CI workflow runs
// everything matching TestZooEquivalence as a dedicated job step.

import (
	"fmt"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/trace"
	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
	"verc3/internal/visited"
	"verc3/internal/zoo"
)

// TestZooEquivalenceTraceOnOff is the headline invariance check for the
// trace-optional refactor: for every registered system, every combination
// of driver (1 and 8 workers) and RecordTrace on/off must report the same
// verdict and the same exploration statistics — the trace store is
// bookkeeping only and must never influence the search. Sketch systems are
// explored under an all-wildcard environment (every hole aborts its
// branch), which still explores a deterministic sub-space.
func TestZooEquivalenceTraceOnOff(t *testing.T) {
	for _, name := range zoo.Names() {
		t.Run(name, func(t *testing.T) {
			type combo struct {
				workers int
				record  bool
			}
			var base *mc.Result
			for _, cb := range []combo{{1, false}, {1, true}, {8, false}, {8, true}} {
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := checkEnv(sys, mc.Options{
					Symmetry:    true,
					Workers:     cb.workers,
					RecordTrace: cb.record,
				}, ts.NewEnv(wildcardChooser{}), nil)
				if err != nil {
					t.Fatalf("workers=%d record=%v: %v", cb.workers, cb.record, err)
				}
				if !cb.record && res.Space.TraceNodes != 0 {
					t.Errorf("workers=%d: %d trace nodes allocated with RecordTrace off", cb.workers, res.Space.TraceNodes)
				}
				if cb.record && res.Space.TraceNodes != res.Stats.VisitedStates {
					t.Errorf("workers=%d: %d trace nodes for %d states with RecordTrace on",
						cb.workers, res.Space.TraceNodes, res.Stats.VisitedStates)
				}
				if res.Space.States != res.Stats.VisitedStates {
					t.Errorf("workers=%d record=%v: Space.States=%d vs VisitedStates=%d",
						cb.workers, cb.record, res.Space.States, res.Stats.VisitedStates)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Verdict != base.Verdict {
					t.Errorf("workers=%d record=%v: verdict %v, want %v", cb.workers, cb.record, res.Verdict, base.Verdict)
				}
				if res.Stats.VisitedStates != base.Stats.VisitedStates {
					t.Errorf("workers=%d record=%v: states %d, want %d", cb.workers, cb.record, res.Stats.VisitedStates, base.Stats.VisitedStates)
				}
				if res.Stats.FiredTransitions != base.Stats.FiredTransitions {
					t.Errorf("workers=%d record=%v: transitions %d, want %d", cb.workers, cb.record, res.Stats.FiredTransitions, base.Stats.FiredTransitions)
				}
				if res.Stats.MaxDepth != base.Stats.MaxDepth {
					t.Errorf("workers=%d record=%v: depth %d, want %d", cb.workers, cb.record, res.Stats.MaxDepth, base.Stats.MaxDepth)
				}
				if res.Stats.WildcardAborts != base.Stats.WildcardAborts {
					t.Errorf("workers=%d record=%v: aborts %d, want %d", cb.workers, cb.record, res.Stats.WildcardAborts, base.Stats.WildcardAborts)
				}
			}
		})
	}
}

// TestZooEquivalenceVisitedBackends is the invariance check for the
// visited-set storage: for every registered system, both backends (flat
// open addressing and the disk-spilling two-level store) at 1 and 8
// workers must report the same verdict and exploration statistics — the
// storage layer decides memory layout, never search semantics. Every run
// must also self-report its backend with a positive measured footprint.
// The spill runs get a RAM budget at the floor, so even the zoo's small
// spaces cross the disk tier and the per-level merges. That the flat
// sequential run counts what exact state identity counts is
// TestZooAppendKeyConsistency's job (the exactness oracle).
func TestZooEquivalenceVisitedBackends(t *testing.T) {
	for _, name := range zoo.Names() {
		t.Run(name, func(t *testing.T) {
			type combo struct {
				workers int
				backend visited.Kind
			}
			var base *mc.Result
			for _, cb := range []combo{
				{1, visited.Flat}, {1, visited.Spill},
				{8, visited.Flat}, {8, visited.Spill},
			} {
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := checkEnv(sys, mc.Options{
					Symmetry: true,
					Workers:  cb.workers,
					Visited:  cb.backend,
					SpillMem: 1, // floor: force flushes on even tiny spaces
					SpillDir: t.TempDir(),
				}, ts.NewEnv(wildcardChooser{}), nil)
				if err != nil {
					t.Fatalf("workers=%d visited=%v: %v", cb.workers, cb.backend, err)
				}
				if res.Space.Backend != cb.backend.String() {
					t.Errorf("workers=%d visited=%v: Space.Backend = %q", cb.workers, cb.backend, res.Space.Backend)
				}
				if res.Space.VisitedBytes <= 0 {
					t.Errorf("workers=%d visited=%v: VisitedBytes = %d", cb.workers, cb.backend, res.Space.VisitedBytes)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Verdict != base.Verdict {
					t.Errorf("workers=%d visited=%v: verdict %v, want %v", cb.workers, cb.backend, res.Verdict, base.Verdict)
				}
				if res.Stats.VisitedStates != base.Stats.VisitedStates {
					t.Errorf("workers=%d visited=%v: states %d, want %d", cb.workers, cb.backend, res.Stats.VisitedStates, base.Stats.VisitedStates)
				}
				if res.Stats.FiredTransitions != base.Stats.FiredTransitions {
					t.Errorf("workers=%d visited=%v: transitions %d, want %d", cb.workers, cb.backend, res.Stats.FiredTransitions, base.Stats.FiredTransitions)
				}
				if res.Stats.MaxDepth != base.Stats.MaxDepth {
					t.Errorf("workers=%d visited=%v: depth %d, want %d", cb.workers, cb.backend, res.Stats.MaxDepth, base.Stats.MaxDepth)
				}
				if res.Stats.WildcardAborts != base.Stats.WildcardAborts {
					t.Errorf("workers=%d visited=%v: aborts %d, want %d", cb.workers, cb.backend, res.Stats.WildcardAborts, base.Stats.WildcardAborts)
				}
			}
		})
	}
}

// TestZooEquivalenceDFS puts search order on the differential axis: DFS
// runs the same expand as BFS, as a stack instead of levels, so on every
// zoo entry that BFS explores completely and passes, DFS must report the
// same verdict, state count and transition count — on the flat table and
// through the spill tier, which DFS never tells about level boundaries and
// which must therefore bound its run files by itself. (Depth is order-
// dependent and failing or wildcard-cut entries stop at order-dependent
// points, so neither is compared.)
func TestZooEquivalenceDFS(t *testing.T) {
	for _, name := range zoo.Names() {
		t.Run(name, func(t *testing.T) {
			run := func(order mc.SearchOrder, backend visited.Kind) *mc.Result {
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := checkEnv(sys, mc.Options{
					Symmetry: true,
					Order:    order,
					Visited:  backend,
					SpillMem: 1, // floor: force flushes on even tiny spaces
					SpillDir: t.TempDir(),
				}, ts.NewEnv(wildcardChooser{}), nil)
				if err != nil {
					t.Fatalf("order=%v visited=%v: %v", order, backend, err)
				}
				return res
			}
			base := run(mc.BFS, visited.Flat)
			if base.Verdict != mc.Success {
				t.Skipf("BFS verdict %v: not a complete passing entry", base.Verdict)
			}
			for _, backend := range []visited.Kind{visited.Flat, visited.Spill} {
				res := run(mc.DFS, backend)
				if res.Verdict != base.Verdict {
					t.Errorf("dfs visited=%v: verdict %v, want %v", backend, res.Verdict, base.Verdict)
				}
				if res.Stats.VisitedStates != base.Stats.VisitedStates {
					t.Errorf("dfs visited=%v: states %d, want %d", backend, res.Stats.VisitedStates, base.Stats.VisitedStates)
				}
				if res.Stats.FiredTransitions != base.Stats.FiredTransitions {
					t.Errorf("dfs visited=%v: transitions %d, want %d", backend, res.Stats.FiredTransitions, base.Stats.FiredTransitions)
				}
			}
		})
	}
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
		sys, err := zoo.Get("msi-complete", zoo.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.Check(sys, mc.Options{Symmetry: true, Workers: workers})
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
	build := func() ts.System {
		sys, err := zoo.Get("msi-complete-4", zoo.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	flat, err := mc.Check(build(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Verdict != mc.Success {
		t.Fatalf("flat verdict = %v", flat.Verdict)
	}
	const budget = 256 << 10
	for _, workers := range []int{1, 8} {
		sp, err := mc.Check(build(), mc.Options{
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
	build := func() ts.System {
		sys, err := zoo.Get("msi-complete", zoo.Params{Caches: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	on, err := mc.Check(build(), mc.Options{Symmetry: true, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := mc.Check(build(), mc.Options{Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
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
// fingerprint-collision detector, mirroring PR 2's re-verification
// rationale.
func TestZooEquivalenceLiveness(t *testing.T) {
	for _, name := range zoo.Names() {
		if name == "msi-complete-4" {
			// The 4-cache stress entry is pinned for backend benchmarks;
			// its liveness product adds nothing the 2-cache run doesn't.
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			sys, err := zoo.Get(name, zoo.Params{Caches: 2})
			if err != nil {
				t.Fatal(err)
			}
			if lr, ok := sys.(ts.LivenessReporter); !ok || len(lr.LivenessGoals()) == 0 {
				t.Skip("no liveness goals")
			}
			type combo struct {
				backend  visited.Kind
				symmetry bool
				workers  int
				order    mc.SearchOrder
			}
			var combos []combo
			for _, backend := range []visited.Kind{visited.Flat, visited.Spill} {
				for _, symmetry := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						for _, order := range []mc.SearchOrder{mc.BFS, mc.DFS} {
							combos = append(combos, combo{backend, symmetry, workers, order})
						}
					}
				}
			}
			var base *mc.Result
			for _, cb := range combos {
				tag := fmt.Sprintf("visited=%v symmetry=%v workers=%d order=%s",
					cb.backend, cb.symmetry, cb.workers, [...]string{"bfs", "dfs"}[cb.order])
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := checkEnv(sys, mc.Options{
					Liveness:    true,
					RecordTrace: true,
					Visited:     cb.backend,
					Symmetry:    cb.symmetry,
					Workers:     cb.workers,
					Order:       cb.order,
					SpillMem:    1, // floor: force flushes on even tiny spaces
					SpillDir:    t.TempDir(),
				}, ts.NewEnv(wildcardChooser{}), nil)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if res.Verdict == mc.Failure && res.Failure.Kind == mc.FailLiveness && !zoo.IsSketch(name) {
					replayLasso(t, sys, res.Failure)
				}
				if base == nil {
					base = res
					continue
				}
				if res.Verdict != base.Verdict {
					t.Errorf("%s: verdict %v, want %v", tag, res.Verdict, base.Verdict)
				}
				gotCycle := res.Failure != nil && res.Failure.Kind == mc.FailLiveness
				wantCycle := base.Failure != nil && base.Failure.Kind == mc.FailLiveness
				if gotCycle != wantCycle {
					t.Errorf("%s: cycle presence %v, want %v", tag, gotCycle, wantCycle)
				}
				// The NDFS phase keys unreduced product encodings, so its
				// counts are invariant across every axis — including
				// symmetry, which only reduces the safety pass.
				if res.Space.LiveStates != base.Space.LiveStates || res.Space.RedStates != base.Space.RedStates {
					t.Errorf("%s: ndfs states %d+%dred, want %d+%dred", tag,
						res.Space.LiveStates, res.Space.RedStates, base.Space.LiveStates, base.Space.RedStates)
				}
				if res.Space.CycleLen != base.Space.CycleLen {
					t.Errorf("%s: cycle length %d, want %d", tag, res.Space.CycleLen, base.Space.CycleLen)
				}
				if gotCycle && wantCycle {
					if res.Failure.Name != base.Failure.Name || res.Failure.CycleStart != base.Failure.CycleStart ||
						len(res.Failure.Trace) != len(base.Failure.Trace) {
						t.Errorf("%s: lasso %q start=%d steps=%d, want %q start=%d steps=%d", tag,
							res.Failure.Name, res.Failure.CycleStart, len(res.Failure.Trace),
							base.Failure.Name, base.Failure.CycleStart, len(base.Failure.Trace))
					} else {
						for i, step := range res.Failure.Trace {
							if step.Rule != base.Failure.Trace[i].Rule || step.State.Key() != base.Failure.Trace[i].State.Key() {
								t.Errorf("%s: lasso diverges at step %d: %q/%q vs %q/%q", tag, i,
									step.Rule, step.State.Key(), base.Failure.Trace[i].Rule, base.Failure.Trace[i].State.Key())
								break
							}
						}
					}
				}
			}
		})
	}
}
