package mc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
)

// line builds a linear graph 0 → 1 → … → n-1 with optional bad terminal.
func line(n int, badLast bool) *tstest.Graph {
	g := &tstest.Graph{Name: "line"}
	for i := 0; i < n; i++ {
		node := tstest.Node{}
		if i+1 < n {
			node.Plain = []int{i + 1}
		}
		g.Nodes = append(g.Nodes, node)
	}
	if badLast {
		g.Nodes[n-1].Bad = true
	}
	return g
}

// TestSuccessOnSafeSystem checks the plain happy path.
func TestSuccessOnSafeSystem(t *testing.T) {
	res, err := mc.Check(line(5, false).System(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.Stats.VisitedStates != 5 {
		t.Errorf("states = %d, want 5", res.Stats.VisitedStates)
	}
	if res.Stats.MaxDepth != 4 {
		t.Errorf("depth = %d, want 4", res.Stats.MaxDepth)
	}
}

// TestInvariantFailureWithTrace checks the counterexample trace is complete
// and ordered initial → violation.
func TestInvariantFailureWithTrace(t *testing.T) {
	res, err := mc.Check(line(4, true).System(), mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
		t.Fatalf("got %v / %+v", res.Verdict, res.Failure)
	}
	if len(res.Failure.Trace) != 4 {
		t.Fatalf("trace length = %d, want 4", len(res.Failure.Trace))
	}
	if res.Failure.Trace[0].Rule != "" {
		t.Error("first step should be the initial state")
	}
	if res.Failure.Trace[3].State.Key() != "3" {
		t.Errorf("last state = %s, want 3", res.Failure.Trace[3].State.Key())
	}
}

// TestBFSTraceMinimality: with a short and a long path to the same bad
// state, BFS must report the short one. This property is what makes the
// paper's pruning patterns maximally general.
func TestBFSTraceMinimality(t *testing.T) {
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
	if got := len(res.Failure.Trace); got != 2 {
		t.Errorf("BFS trace length = %d, want 2 (minimal)", got)
	}
	// DFS explores depth-first and may find the long way round.
	res, err = mc.Check(g, mc.Options{RecordTrace: true, Order: mc.DFS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure {
		t.Fatalf("DFS verdict = %v", res.Verdict)
	}
}

// TestDeadlockDetection checks a non-quiescent sink is reported.
func TestDeadlockDetection(t *testing.T) {
	// Graph terminals are quiescent, so the stuck state is a custom system.
	sys := &sinkSystem{}
	res, err := mc.Check(sys, mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailDeadlock {
		t.Fatalf("got %v / %+v, want deadlock", res.Verdict, res.Failure)
	}
}

// sinkSystem: 0 → 1, and 1 has no transitions and is not quiescent.
type sinkSystem struct{}

type intState int

func (s intState) Key() string     { return string(rune('a' + s)) }
func (s intState) Clone() ts.State { return s }
func (s intState) AppendKey(d []byte) []byte {
	return append(d, byte(s))
}

func (*sinkSystem) Name() string        { return "sink" }
func (*sinkSystem) Initial() []ts.State { return []ts.State{intState(0)} }
func (*sinkSystem) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	if s.(intState) == 0 {
		return append(dst, ts.Rule{})
	}
	return dst
}
func (*sinkSystem) FireRule(ts.State, ts.Rule, *ts.Env) (ts.State, error) { return intState(1), nil }
func (*sinkSystem) RuleName(ts.Rule) string                               { return "go" }
func (*sinkSystem) Invariants() []ts.Invariant                            { return nil }

// emptySystem is sinkSystem without initial states: a malformed model.
type emptySystem struct{ sinkSystem }

func (emptySystem) Initial() []ts.State { return nil }

// TestQuiescentSinkIsNotDeadlock checks QuiescentReporter suppresses the
// deadlock report (graph terminals are quiescent).
func TestQuiescentSinkIsNotDeadlock(t *testing.T) {
	res, err := mc.Check(line(3, false).System(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("verdict = %v, want success", res.Verdict)
	}
}

// TestGoalFailure checks an unreached goal fails a complete exploration.
func TestGoalFailure(t *testing.T) {
	g := line(3, false)
	g.Nodes = append(g.Nodes, tstest.Node{Goal: true}) // unreachable node 3
	res, err := mc.Check(g.System(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailGoal {
		t.Fatalf("got %v / %+v, want goal failure", res.Verdict, res.Failure)
	}
	if res.Failure.UsageMask != ^uint64(0) {
		t.Error("goal failures must conservatively involve every hole")
	}
}

// TestGoalReached checks a reachable goal passes.
func TestGoalReached(t *testing.T) {
	g := line(3, false)
	g.Nodes[2].Goal = true
	res, err := mc.Check(g.System(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

// checkEnv is one check of a fresh session with env as the environment and
// usage as the tracker: mc.Check for models with holes.
func checkEnv(sys ts.System, opt mc.Options, env *ts.Env, usage mc.UsageTracker) (*mc.Result, error) {
	return mc.NewSession(sys, opt).Check(context.Background(), env, usage)
}

// wildcardChooser makes every hole a wildcard.
type wildcardChooser struct{}

func (wildcardChooser) Choose(string, []string) (int, error) { return 0, ts.ErrWildcard }

// TestUnknownOnWildcard checks wildcard aborts downgrade success to unknown
// and suppress both deadlock and goal verdicts.
func TestUnknownOnWildcard(t *testing.T) {
	res, err := checkEnv(zooSystem(t, "fig2"), mc.Options{}, ts.NewEnv(wildcardChooser{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Unknown {
		t.Fatalf("verdict = %v, want unknown", res.Verdict)
	}
	if !res.WildcardHit || res.Stats.WildcardAborts == 0 {
		t.Error("wildcard statistics not recorded")
	}
}

// TestMaxStatesCap checks the cap downgrades to unknown.
func TestMaxStatesCap(t *testing.T) {
	res, err := mc.Check(line(100, false).System(), mc.Options{MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Unknown || !res.CapHit {
		t.Fatalf("got %v capHit=%v, want unknown via cap", res.Verdict, res.CapHit)
	}
}

// errChooser returns a non-wildcard error.
type errChooser struct{}

func (errChooser) Choose(string, []string) (int, error) {
	return 0, errors.New("boom")
}

// TestModelErrorPropagates checks non-wildcard Fire errors become Check
// errors, not verdicts.
func TestModelErrorPropagates(t *testing.T) {
	_, err := checkEnv(zooSystem(t, "fig2"), mc.Options{}, ts.NewEnv(errChooser{}), nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestNoInitialStates checks the malformed-model error.
func TestNoInitialStates(t *testing.T) {
	if _, err := mc.Check(&emptySystem{}, mc.Options{}); err == nil {
		t.Fatal("want error for no initial states")
	}
}

// TestDFSExploresAll checks DFS visits the same state count on a safe system.
func TestDFSExploresAll(t *testing.T) {
	bfs, err := mc.Check(line(9, false).System(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dfs, err := mc.Check(line(9, false).System(), mc.Options{Order: mc.DFS})
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Stats.VisitedStates != dfs.Stats.VisitedStates {
		t.Errorf("BFS %d states vs DFS %d", bfs.Stats.VisitedStates, dfs.Stats.VisitedStates)
	}
}

// TestVerdictStrings pins the display names used in reports.
func TestVerdictStrings(t *testing.T) {
	for v, want := range map[mc.Verdict]string{
		mc.Success: "success", mc.Failure: "failure", mc.Unknown: "unknown",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
	for k, want := range map[mc.FailKind]string{
		mc.FailInvariant: "invariant", mc.FailDeadlock: "deadlock", mc.FailGoal: "goal",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

// nopUsage is a UsageTracker that reports no holes: the synthesis regime's
// shape without a chooser behind it.
type nopUsage struct{}

func (nopUsage) ResetUsage()   {}
func (nopUsage) Usage() uint64 { return 0 }

// TestCheckFixedAllocs pins the per-call fixed cost of a check the way
// TestLifecycleAllocRegression pins the per-state cost: synthesis is tens
// of thousands of ~75-state checks (bench workload synth-large), so what a
// check allocates before and after it explores is most of what a dispatch
// costs. The system is a ten-state tree explored the way synthesis explores
// (traceless, usage-tracked, one worker). A session's steady state is the
// Result and the model's Initial slice — kernel, worker scratch, visited
// table and frontier blocks are the session's and are reused — with slack
// for two more; a one-shot Check builds the session first (19 allocations,
// 27 before sessions existed) and keeps a ceiling of its own.
func TestCheckFixedAllocs(t *testing.T) {
	g := (&tstest.Graph{Name: "tree10", Nodes: []tstest.Node{
		{Plain: []int{1, 2, 3}},
		{Plain: []int{4, 5}}, {Plain: []int{6, 7}}, {Plain: []int{8, 9}},
		{}, {}, {}, {}, {}, {Goal: true},
	}}).System()
	check := func(res *mc.Result, err error) {
		if err != nil || res.Verdict != mc.Success || res.Stats.VisitedStates != 10 {
			t.Fatalf("got %v, %v", res, err)
		}
	}
	sess := mc.NewSession(g, mc.Options{})
	steady := testing.AllocsPerRun(200, func() { check(sess.Check(context.Background(), nil, nopUsage{})) })
	oneShot := testing.AllocsPerRun(200, func() { check(checkEnv(g, mc.Options{}, nil, nopUsage{})) })
	t.Logf("%.0f allocations per session check, %.0f per one-shot Check", steady, oneShot)
	if steady > 4 && !raceEnabled {
		t.Errorf("a session's check allocates %.0f times on a ten-state system, want <= 4", steady)
	}
	if oneShot > 24 && !raceEnabled {
		t.Errorf("a one-shot Check allocates %.0f times on a ten-state system, want <= 24", oneShot)
	}
}

// TestCheckAllocsPeterson pins the fixed cost of checking a spec-built
// model: evaluating a compiled guard, action or property allocates
// nothing, so a one-shot Check of the 30-state peterson entry allocates
// no more than the hand-written model it replaced did (16).
func TestCheckAllocsPeterson(t *testing.T) {
	sys := zooSystem(t, "peterson")
	allocs := testing.AllocsPerRun(100, func() {
		res, err := mc.Check(sys, mc.Options{})
		if err != nil || res.Verdict != mc.Success || res.Stats.VisitedStates != 30 {
			t.Fatalf("got %v, %v", res, err)
		}
	})
	t.Logf("%.0f allocations per one-shot Check of peterson", allocs)
	if allocs > 16 && !raceEnabled {
		t.Errorf("a one-shot Check of peterson allocates %.0f times, want <= 16", allocs)
	}
}
