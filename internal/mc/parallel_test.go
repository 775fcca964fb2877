package mc_test

import (
	"testing"

	"verc3/internal/mc"
	"verc3/internal/toy"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// checkBoth runs the same system/options through the sequential and the
// parallel driver and returns both results. buildSys is called once per
// driver so the two runs share no mutable state.
func checkBoth(t *testing.T, buildSys func() ts.System, opt mc.Options, env *ts.Env, workers int) (seq, par *mc.Result) {
	t.Helper()
	seqOpt := opt
	seqOpt.Workers = 1
	seq, err := checkEnv(buildSys(), seqOpt, env, nil)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	parOpt := opt
	parOpt.Workers = workers
	par, err = checkEnv(buildSys(), parOpt, env, nil)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	return seq, par
}

// TestParallelMatchesSequentialOnZoo is the headline equivalence check:
// for every registered system, the parallel driver must report the same
// verdict and the same exploration statistics as the sequential one —
// complete explorations visit identical state sets under both drivers
// because they share the canonical-key fingerprint scheme. Sketch systems
// are explored under an all-wildcard environment (every hole aborts its
// branch), which still explores a deterministic sub-space.
func TestParallelMatchesSequentialOnZoo(t *testing.T) {
	for _, name := range zoo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			build := func() ts.System {
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			seq, par := checkBoth(t, build, mc.Options{Symmetry: true}, ts.NewEnv(wildcardChooser{}), 8)
			if seq.Verdict != par.Verdict {
				t.Fatalf("verdict: sequential %v vs parallel %v", seq.Verdict, par.Verdict)
			}
			if seq.Stats.VisitedStates != par.Stats.VisitedStates {
				t.Errorf("states: sequential %d vs parallel %d", seq.Stats.VisitedStates, par.Stats.VisitedStates)
			}
			if seq.Stats.FiredTransitions != par.Stats.FiredTransitions {
				t.Errorf("transitions: sequential %d vs parallel %d", seq.Stats.FiredTransitions, par.Stats.FiredTransitions)
			}
			if seq.Stats.MaxDepth != par.Stats.MaxDepth {
				t.Errorf("max depth: sequential %d vs parallel %d", seq.Stats.MaxDepth, par.Stats.MaxDepth)
			}
			if seq.Stats.WildcardAborts != par.Stats.WildcardAborts {
				t.Errorf("aborts: sequential %d vs parallel %d", seq.Stats.WildcardAborts, par.Stats.WildcardAborts)
			}
			if seq.WildcardHit != par.WildcardHit {
				t.Errorf("wildcardHit: sequential %v vs parallel %v", seq.WildcardHit, par.WildcardHit)
			}
		})
	}
}

// TestParallelMatchesSequentialMSI3 repeats the equivalence check on the
// default three-cache MSI configuration (the biggest complete state space
// in the zoo), with and without symmetry reduction.
func TestParallelMatchesSequentialMSI3(t *testing.T) {
	if testing.Short() {
		t.Skip("larger state space; run without -short")
	}
	for _, symmetry := range []bool{true, false} {
		build := func() ts.System {
			sys, err := zoo.Get("msi-complete", zoo.Params{})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		seq, par := checkBoth(t, build, mc.Options{Symmetry: symmetry}, nil, 8)
		if seq.Verdict != par.Verdict || seq.Stats.VisitedStates != par.Stats.VisitedStates {
			t.Errorf("symmetry=%v: sequential %v/%d vs parallel %v/%d", symmetry,
				seq.Verdict, seq.Stats.VisitedStates, par.Verdict, par.Stats.VisitedStates)
		}
	}
}

// replayTrace replays a counterexample trace against the system's own
// transition relation: every step must name an enabled transition whose
// firing produces the recorded successor. This is the validity contract
// parallel traces must keep even though they are assembled from
// concurrently discovered parent links.
func replayTrace(t *testing.T, sys ts.System, f *mc.FailureInfo) ts.State {
	t.Helper()
	if len(f.Trace) == 0 {
		t.Fatal("empty trace")
	}
	initial := false
	for _, s := range sys.Initial() {
		if s.Key() == f.Trace[0].State.Key() {
			initial = true
			break
		}
	}
	if !initial {
		t.Fatalf("trace does not start in an initial state (got %q)", f.Trace[0].State.Key())
	}
	cur := f.Trace[0].State
	for i, step := range f.Trace[1:] {
		matched := false
		for _, r := range sys.AppendRules(nil, cur) {
			if sys.RuleName(r) != step.Rule {
				continue
			}
			next, err := sys.FireRule(cur, r, nil)
			if err != nil {
				t.Fatalf("step %d: firing %q: %v", i+1, step.Rule, err)
			}
			if next.Key() == step.State.Key() {
				matched = true
				cur = next
				break
			}
		}
		if !matched {
			t.Fatalf("step %d: no enabled transition %q reproduces state %q from %q",
				i+1, step.Rule, step.State.Key(), cur.Key())
		}
	}
	return cur
}

// TestParallelTraceValidity checks parallel counterexamples replay through
// the system for both invariant violations and deadlocks.
func TestParallelTraceValidity(t *testing.T) {
	t.Run("invariant", func(t *testing.T) {
		// A wide two-layer graph with one bad state buried in the second
		// layer, so many workers race while the violation is found.
		g := &toy.Graph{SysName: "wide", Init: []int{0}}
		g.Nodes = append(g.Nodes, toy.Node{})
		for i := 1; i <= 40; i++ {
			g.Nodes[0].Plain = append(g.Nodes[0].Plain, i)
			g.Nodes = append(g.Nodes, toy.Node{Plain: []int{41}})
		}
		g.Nodes = append(g.Nodes, toy.Node{Plain: []int{42}}, toy.Node{Bad: true})
		res, err := mc.Check(g, mc.Options{RecordTrace: true, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
			t.Fatalf("got %v / %+v, want invariant failure", res.Verdict, res.Failure)
		}
		last := replayTrace(t, g, res.Failure)
		for _, inv := range g.Invariants() {
			if inv.Name == res.Failure.Name && inv.Holds(last) {
				t.Errorf("final trace state does not violate %q", res.Failure.Name)
			}
		}
	})
	t.Run("deadlock", func(t *testing.T) {
		sys := &sinkSystem{}
		res, err := mc.Check(sys, mc.Options{RecordTrace: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailDeadlock {
			t.Fatalf("got %v / %+v, want deadlock", res.Verdict, res.Failure)
		}
		last := replayTrace(t, sys, res.Failure)
		if len(sys.AppendRules(nil, last)) != 0 {
			t.Error("deadlock trace does not end in a sink state")
		}
	})
}

// TestParallelGoalVerdicts checks reachability-goal handling in the
// parallel driver: reached goals pass, unreached goals fail with the
// conservative all-holes usage mask.
func TestParallelGoalVerdicts(t *testing.T) {
	reached := line(3, false)
	reached.Nodes[2].Goal = true
	res, err := mc.Check(reached, mc.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("reached goal: verdict = %v", res.Verdict)
	}
	unreached := line(3, false)
	unreached.Nodes = append(unreached.Nodes, toy.Node{Goal: true}) // unreachable
	res, err = mc.Check(unreached, mc.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailGoal {
		t.Fatalf("unreached goal: got %v / %+v", res.Verdict, res.Failure)
	}
	if res.Failure.UsageMask != ^uint64(0) {
		t.Error("goal failures must conservatively involve every hole")
	}
}

// TestParallelMaxStatesCap checks the cap downgrades a parallel run to
// unknown, same as the sequential driver.
func TestParallelMaxStatesCap(t *testing.T) {
	res, err := mc.Check(line(100, false), mc.Options{MaxStates: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Unknown || !res.CapHit {
		t.Fatalf("got %v capHit=%v, want unknown via cap", res.Verdict, res.CapHit)
	}
}

// TestParallelModelErrorPropagates checks non-wildcard Fire errors surface
// as Check errors from the parallel driver too.
func TestParallelModelErrorPropagates(t *testing.T) {
	_, err := checkEnv(toy.Figure2(), mc.Options{Workers: 4}, ts.NewEnv(errChooser{}), nil)
	if err == nil {
		t.Fatal("want error")
	}
}

// TestParallelDFSFallsBackToSequential pins the documented fallback: DFS
// order ignores Workers and keeps the deterministic sequential driver (its
// non-minimal-trace ablation semantics depend on traversal order).
func TestParallelDFSFallsBackToSequential(t *testing.T) {
	res, err := mc.Check(line(9, false), mc.Options{Order: mc.DFS, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success || res.Stats.VisitedStates != 9 {
		t.Fatalf("got %v / %d states", res.Verdict, res.Stats.VisitedStates)
	}
}

// TestParallelPeakFrontierHighWater is the regression test for the
// frontier accounting: during a level expansion the whole current level is
// still held in its buffer while the next level accumulates, so the
// high-water mark is the largest cur+next coexistence — not, as once
// reported, the largest single level. The graph below has levels of sizes
// 1, 2, 4: the true peak is 2+4 = 6, while the buggy largest-level figure
// was 4.
func TestParallelPeakFrontierHighWater(t *testing.T) {
	//        0
	//      /   \
	//     1     2
	//    / \   / \
	//   3   4 5   6   (terminals; quiescent, so no deadlock)
	g := &toy.Graph{SysName: "tree", Init: []int{0}, Nodes: []toy.Node{
		{Plain: []int{1, 2}},
		{Plain: []int{3, 4}},
		{Plain: []int{5, 6}},
		{}, {}, {}, {},
	}}
	// One definition at every width. The sequential half used to expect 4:
	// the old sequential driver's ring released each entry as it was
	// popped. The kernel walks BFS level by level from two recycled
	// buffers, so a single worker retains exactly what several do.
	for _, workers := range []int{4, 1} {
		res, err := mc.Check(g, mc.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success || res.Stats.VisitedStates != 7 {
			t.Fatalf("workers=%d: got %v / %d states", workers, res.Verdict, res.Stats.VisitedStates)
		}
		if res.Space.PeakFrontier != 6 {
			t.Errorf("workers=%d: PeakFrontier = %d, want 6 (level 2 held + level 3 emitted)", workers, res.Space.PeakFrontier)
		}
	}
}

// maskChooser resolves every hole to its first action and tracks usage the
// way internal/core's chooser does: holes maps a hole name to its bit. It
// is deliberately not safe for concurrent use — one tracker brackets one
// firing at a time — which is why usage tracking needs a single worker.
type maskChooser struct {
	holes map[string]uint
	used  uint64
}

func (c *maskChooser) Choose(hole string, _ []string) (int, error) {
	c.used |= 1 << c.holes[hole]
	return 0, nil
}
func (c *maskChooser) ResetUsage()   { c.used = 0 }
func (c *maskChooser) Usage() uint64 { return c.used }

// TestUsageTrackingRunsOneWorker pins the other derivation beside DFS: a
// UsageTracker makes Workers irrelevant, so a Workers: 4 run must report
// exactly what Workers: 1 does — counts, the usage mask of the error path,
// and the minimal BFS counterexample the pruning optimization relies on.
// The bad node is two steps away through hole A and three through hole B:
// the minimal trace consults A only. (Under -race a run that did spread a
// tracked exploration over workers would also trip the detector here.)
func TestUsageTrackingRunsOneWorker(t *testing.T) {
	build := func() *toy.Graph {
		return &toy.Graph{SysName: "two-holes", Init: []int{0}, Nodes: []toy.Node{
			{Plain: []int{1, 2}},
			{Hole: "A", Acts: []string{"x"}, To: []int{3}},
			{Hole: "B", Acts: []string{"y"}, To: []int{4}},
			{Bad: true},
			{Plain: []int{3}},
		}}
	}
	run := func(workers int) *mc.Result {
		ch := &maskChooser{holes: map[string]uint{"A": 0, "B": 1}}
		res, err := checkEnv(build(), mc.Options{Workers: workers, RecordTrace: true}, ts.NewEnv(ch), ch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
			t.Fatalf("workers=%d: got %v / %+v, want invariant failure", workers, res.Verdict, res.Failure)
		}
		return res
	}
	one, four := run(1), run(4)
	if one.Failure.UsageMask != 0b01 {
		t.Errorf("usage mask = %b, want hole A only", one.Failure.UsageMask)
	}
	if len(one.Failure.Trace) != 3 {
		t.Errorf("trace has %d steps, want the minimal 3", len(one.Failure.Trace))
	}
	if four.Stats != one.Stats || four.Failure.UsageMask != one.Failure.UsageMask ||
		four.Space.PeakFrontier != one.Space.PeakFrontier || len(four.Failure.Trace) != len(one.Failure.Trace) {
		t.Fatalf("workers=4: %+v mask %b, %d steps; workers=1: %+v mask %b, %d steps",
			four.Stats, four.Failure.UsageMask, len(four.Failure.Trace),
			one.Stats, one.Failure.UsageMask, len(one.Failure.Trace))
	}
	for i, step := range four.Failure.Trace {
		if step.Rule != one.Failure.Trace[i].Rule || step.State.Key() != one.Failure.Trace[i].State.Key() {
			t.Errorf("trace step %d: %q/%q, workers=1 has %q/%q", i,
				step.Rule, step.State.Key(), one.Failure.Trace[i].Rule, one.Failure.Trace[i].State.Key())
		}
	}
}
