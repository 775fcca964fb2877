package core_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/toy"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// TestOnEvaluateSequentialOrder: with one worker the event stream is the
// exact evaluation order, candidates never repeat, and counters match.
func TestOnEvaluateSequentialOrder(t *testing.T) {
	var events []core.Event
	res, err := core.Synthesize(toy.Figure2(), core.Config{
		Mode:       core.ModePrune,
		OnEvaluate: func(ev core.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(events)) != res.Stats.Evaluated {
		t.Fatalf("events = %d, evaluated = %d", len(events), res.Stats.Evaluated)
	}
	seen := map[string]bool{}
	var succ, fail, unk int64
	for _, ev := range events {
		key := ""
		for _, a := range ev.Assign {
			key += string(rune('0' + a))
		}
		key += ":" + string(rune('0'+len(ev.Assign)))
		if seen[key] {
			t.Errorf("candidate %v evaluated twice", ev.Assign)
		}
		seen[key] = true
		switch ev.Verdict {
		case mc.Success:
			succ++
		case mc.Failure:
			fail++
		case mc.Unknown:
			unk++
		}
	}
	if succ != res.Stats.Successes || fail != res.Stats.Failures || unk != res.Stats.Unknowns {
		t.Errorf("verdict counters drift: events %d/%d/%d vs stats %d/%d/%d",
			succ, fail, unk, res.Stats.Successes, res.Stats.Failures, res.Stats.Unknowns)
	}
	// Holes and patterns are monotone along the stream.
	for i := 1; i < len(events); i++ {
		if events[i].Holes < events[i-1].Holes || events[i].Patterns < events[i-1].Patterns {
			t.Fatalf("non-monotone discovery at event %d", i)
		}
	}
}

// TestOnEvaluateParallelSafe: concurrent events with a mutex-protected
// callback; total must match.
func TestOnEvaluateParallelSafe(t *testing.T) {
	var mu sync.Mutex
	count := 0
	res, err := core.Synthesize(toy.Chain(6, 3), core.Config{
		Mode:    core.ModePrune,
		Workers: 4,
		OnEvaluate: func(core.Event) {
			mu.Lock()
			count++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(count) != res.Stats.Evaluated {
		t.Errorf("events %d vs evaluated %d", count, res.Stats.Evaluated)
	}
}

// TestMaxEvaluationsParallel: the cap holds under concurrency.
func TestMaxEvaluationsParallel(t *testing.T) {
	res, err := core.Synthesize(toy.Chain(8, 3), core.Config{
		Mode: core.ModePrune, Workers: 4, MaxEvaluations: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluated > 7 {
		t.Errorf("evaluated %d > cap 7", res.Stats.Evaluated)
	}
	if !res.Stats.Truncated {
		t.Error("Truncated not set")
	}
}

// TestMCStateCapDuringSynthesis: per-run caps downgrade runs to unknown;
// synthesis completes without false solutions.
func TestMCStateCapDuringSynthesis(t *testing.T) {
	res, err := core.Synthesize(toy.Chain(4, 2), core.Config{
		Mode: core.ModePrune,
		MC:   mc.Options{MaxStates: 2}, // every run gets capped
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Errorf("capped runs must not produce solutions; got %d", len(res.Solutions))
	}
	if res.Stats.Unknowns == 0 {
		t.Error("expected unknown verdicts from capped runs")
	}
}

// hostileSystem redeclares a hole with a different arity mid-search: the
// engine must surface a hard error, not mislabel candidates. It borrows a
// toy graph's states and properties through a named field, not by embedding
// it, so none of the graph's optional capabilities (quiescence, goals) is
// promoted.
type hostileSystem struct{ g toy.Graph }

func (h *hostileSystem) Name() string               { return h.g.Name() }
func (h *hostileSystem) Initial() []ts.State        { return h.g.Initial() }
func (h *hostileSystem) Invariants() []ts.Invariant { return h.g.Invariants() }

func (h *hostileSystem) AppendRules(dst []ts.Rule, _ ts.State) []ts.Rule {
	return append(dst, ts.Rule{})
}

func (h *hostileSystem) FireRule(s ts.State, _ ts.Rule, env *ts.Env) (ts.State, error) {
	acts := []string{"a", "b"}
	if s.Key() != "n0" {
		acts = []string{"a"}
	}
	if _, err := env.Choose("h", acts); err != nil {
		return nil, err
	}
	return s.Clone(), nil
}

func (h *hostileSystem) RuleName(ts.Rule) string { return "bad" }

func TestInconsistentHoleArityFails(t *testing.T) {
	h := &hostileSystem{g: toy.Graph{
		SysName: "hostile", Init: []int{0, 1},
		Nodes: []toy.Node{{}, {}},
	}}
	_, err := core.Synthesize(h, core.Config{Mode: core.ModePrune})
	if err == nil || !strings.Contains(err.Error(), "redeclared") {
		t.Fatalf("err = %v, want redeclaration error", err)
	}
}

// TestManyHolesBeyondMaskWidth: >64 holes must still synthesize correctly
// (usage masks saturate; trace-generalized falls back to full-vector).
func TestManyHolesBeyondMaskWidth(t *testing.T) {
	g := toy.Chain(70, 2)
	for _, style := range []core.PruneStyle{core.PruneFullVector, core.PruneTraceGeneralized} {
		res, err := core.Synthesize(g, core.Config{Mode: core.ModePrune, PruneStyle: style})
		if err != nil {
			t.Fatalf("style %v: %v", style, err)
		}
		if len(res.Solutions) != 1 {
			t.Fatalf("style %v: %d solutions, want 1", style, len(res.Solutions))
		}
		if res.Stats.Holes != 70 {
			t.Errorf("style %v: holes = %d", style, res.Stats.Holes)
		}
	}
}

// TestSkippedSaturates: the 70-hole chain's last rounds skip far more than
// 2^63 candidates, so Stats.Skipped saturates at MaxInt64 instead of
// wrapping negative, and the collector counts exactly what Stats reports.
func TestSkippedSaturates(t *testing.T) {
	for _, style := range []core.PruneStyle{core.PruneFullVector, core.PruneTraceGeneralized} {
		col := obs.New()
		res, err := core.Synthesize(toy.Chain(70, 2), core.Config{Mode: core.ModePrune, PruneStyle: style, Obs: col})
		if err != nil {
			t.Fatalf("style %v: %v", style, err)
		}
		if res.Stats.Skipped != math.MaxInt64 {
			t.Errorf("style %v: Skipped = %d, want MaxInt64", style, res.Stats.Skipped)
		}
		if got := col.Snapshot().Counters[obs.CSkipped]; got != uint64(res.Stats.Skipped) {
			t.Errorf("style %v: skipped counter %d, stats %d", style, got, res.Stats.Skipped)
		}
	}
}

// TestDeterministicSequentialRuns: same config twice gives identical stats
// and solutions (no map-iteration nondeterminism leaking out).
func TestDeterministicSequentialRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := toy.Random(rng, 5)
	a, err := core.Synthesize(g, core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Synthesize(g, core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Evaluated != b.Stats.Evaluated || a.Stats.Patterns != b.Stats.Patterns ||
		len(a.Solutions) != len(b.Solutions) {
		t.Errorf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestSolutionAssignCopied: mutating a returned solution must not corrupt
// engine internals (defensive copying).
func TestSolutionAssignCopied(t *testing.T) {
	res, err := core.Synthesize(toy.Figure2(), core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	res.Solutions[0].Assign[0] = 99
	if d := res.Describe(0); !strings.Contains(d, "!") {
		// Describe renders out-of-range as "!"; the point is no panic and
		// no aliasing with HoleActions.
		t.Logf("describe after mutation: %s", d)
	}
}

// TestSynthesisBackendsAgree: both visited backends — the flat table and
// the disk-spilling tier, which bounds RAM without giving up exactness —
// serve synthesis dispatches and search identically. (Figure2 dispatches
// explore ≤5 states, below even the floor budget's flush threshold, so this
// covers spill's acceptance and RAM-tier path; the disk-resident path is
// exercised by the internal/visited suite and TestSpillStressBoundedRAM.)
func TestSynthesisBackendsAgree(t *testing.T) {
	var counts []int64
	for _, kind := range []visited.Kind{visited.Flat, visited.Spill} {
		res, err := core.Synthesize(toy.Figure2(), core.Config{
			Mode: core.ModePrune,
			MC:   mc.Options{Visited: kind, SpillMem: 1, SpillDir: t.TempDir()},
		})
		if err != nil {
			t.Fatalf("visited=%v: %v", kind, err)
		}
		if len(res.Solutions) != 1 || !res.Solutions[0].Reverified {
			t.Fatalf("visited=%v: solutions = %+v", kind, res.Solutions)
		}
		counts = append(counts, res.Stats.Evaluated)
	}
	if counts[1] != counts[0] {
		t.Errorf("evaluated: spill %d vs flat's %d — the backends must search identically", counts[1], counts[0])
	}
}
