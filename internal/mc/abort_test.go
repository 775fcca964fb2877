package mc_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verc3/internal/mc"
	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
)

// chain is a parametric linear system 0 → 1 → … → n-1 whose AppendRules
// calls an optional hook — the tests' window into "model code is running
// now" — and can be armed to panic at a chosen state.
type chain struct {
	n       int
	panicAt int // state value whose AppendRules panics (-1 = never)
	hook    func(v int)
}

type chainState int

func (s chainState) Key() string     { return fmt.Sprintf("c%d", int(s)) }
func (s chainState) Clone() ts.State { return s }
func (s chainState) AppendKey(d []byte) []byte {
	return binary.AppendUvarint(d, uint64(s))
}

func newChain(n int) *chain { return &chain{n: n, panicAt: -1} }

func (c *chain) Name() string        { return "chain" }
func (c *chain) Initial() []ts.State { return []ts.State{chainState(0)} }
func (c *chain) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	v := int(s.(chainState))
	if c.hook != nil {
		c.hook(v)
	}
	if v == c.panicAt {
		panic(fmt.Sprintf("model bug at %d", v))
	}
	if v+1 >= c.n {
		return dst
	}
	return append(dst, ts.Rule{})
}
func (c *chain) FireRule(src ts.State, _ ts.Rule, _ *ts.Env) (ts.State, error) {
	return src.(chainState) + 1, nil
}
func (c *chain) RuleName(ts.Rule) string    { return "step" }
func (c *chain) Invariants() []ts.Invariant { return nil }
func (c *chain) Quiescent(ts.State) bool    { return true }

// drivers runs the subtest under each way the kernel walks a frontier: BFS
// on one worker, BFS on four, and the DFS stack.
func drivers(t *testing.T, f func(t *testing.T, opt mc.Options)) {
	t.Helper()
	t.Run("sequential", func(t *testing.T) { f(t, mc.Options{Workers: 1}) })
	t.Run("parallel", func(t *testing.T) { f(t, mc.Options{Workers: 4}) })
	t.Run("dfs", func(t *testing.T) { f(t, mc.Options{Order: mc.DFS}) })
}

// TestPreCancelledContextAborts: a context that is dead before the run
// starts must abort before any expansion, under every walk, with the
// cancel cause surfaced.
func TestPreCancelledContextAborts(t *testing.T) {
	drivers(t, func(t *testing.T, opt mc.Options) {
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(errors.New("pre-cancelled"))
		res, err := mc.CheckCtx(ctx, newChain(100000), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Aborted || res.Abort == nil {
			t.Fatalf("verdict = %v, abort = %+v, want aborted", res.Verdict, res.Abort)
		}
		if res.Abort.Panic || !strings.Contains(res.Abort.Cause.Error(), "pre-cancelled") {
			t.Errorf("abort = %+v, want non-panic with the cancel cause", res.Abort)
		}
		if res.Stats.FiredTransitions != 0 {
			t.Errorf("fired %d transitions after a dead context", res.Stats.FiredTransitions)
		}
	})
}

// TestCancelMidRunKeepsPartialStats: cancelling from inside model code
// stops the run within the poll bound and preserves the partial counters.
func TestCancelMidRunKeepsPartialStats(t *testing.T) {
	drivers(t, func(t *testing.T, opt mc.Options) {
		ctx, cancel := context.WithCancelCause(context.Background())
		sys := newChain(100000)
		sys.hook = func(v int) {
			if v == 100 {
				cancel(errors.New("deep enough"))
			}
		}
		res, err := mc.CheckCtx(ctx, sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Aborted {
			t.Fatalf("verdict = %v, want aborted", res.Verdict)
		}
		if !strings.Contains(res.Abort.Cause.Error(), "deep enough") {
			t.Errorf("cause = %v", res.Abort.Cause)
		}
		if n := res.Stats.VisitedStates; n < 100 || n >= 100000 {
			t.Errorf("visited = %d, want partial progress (≥100, < full space)", n)
		}
	})
}

// TestDeadlineAborts: a context deadline surfaces as DeadlineExceeded via
// context.Cause.
func TestDeadlineAborts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	sys := newChain(1 << 30)
	sys.hook = func(int) { time.Sleep(50 * time.Microsecond) }
	res, err := mc.CheckCtx(ctx, sys, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Aborted {
		t.Fatalf("verdict = %v, want aborted", res.Verdict)
	}
	if !errors.Is(res.Abort.Cause, context.DeadlineExceeded) {
		t.Errorf("cause = %v, want DeadlineExceeded", res.Abort.Cause)
	}
}

// TestPanicContainment: a panic out of model code must not crash the
// process; it aborts the run carrying the offending state's key and a
// stack trace, under every walk.
func TestPanicContainment(t *testing.T) {
	drivers(t, func(t *testing.T, opt mc.Options) {
		sys := newChain(1000)
		sys.panicAt = 50
		res, err := mc.CheckCtx(context.Background(), sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Aborted || res.Abort == nil || !res.Abort.Panic {
			t.Fatalf("verdict = %v, abort = %+v, want panic abort", res.Verdict, res.Abort)
		}
		if res.Abort.StateKey != "c50" {
			t.Errorf("state key = %q, want c50", res.Abort.StateKey)
		}
		if !strings.Contains(res.Abort.Cause.Error(), "model bug at 50") {
			t.Errorf("cause = %v", res.Abort.Cause)
		}
		if res.Abort.Stack == "" {
			t.Error("panic abort carries no stack trace")
		}
	})
}

// TestFailureOutranksCancellation: an invariant violation found before the
// abort is the more informative verdict and must win, under every walk.
func TestFailureOutranksCancellation(t *testing.T) {
	drivers(t, func(t *testing.T, opt mc.Options) {
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(errors.New("too late"))
		// A bad initial state: the failure is recorded during admission,
		// before the first cancellation poll can abort.
		g := &tstest.Graph{Name: "badinit", Nodes: []tstest.Node{{Bad: true}}}
		res, err := mc.CheckCtx(ctx, g.System(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure {
			t.Fatalf("verdict = %v, want failure (outranks abort)", res.Verdict)
		}
		if res.Abort != nil {
			t.Errorf("failure result carries abort info %+v", res.Abort)
		}
	})
}

// TestAbortSkipsGoalVerdict: "goal never witnessed" is only meaningful
// over the complete space, so an aborted run must not report a goal
// failure.
func TestAbortSkipsGoalVerdict(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("cut short"))
	g := &tstest.Graph{Name: "goal-abort", Nodes: []tstest.Node{
		{Plain: []int{1}}, {}, {Goal: true}, // node 2 unreachable
	}}
	res, err := mc.CheckCtx(ctx, g.System(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Aborted {
		t.Fatalf("verdict = %v, want aborted (not a spurious goal failure)", res.Verdict)
	}
}

// TestAbortSkipsLiveness: an aborted safety pass must not run the NDFS
// phase (whose verdict over a partial visited set would be meaningless).
func TestAbortSkipsLiveness(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("cut short"))
	res, err := mc.CheckCtx(ctx, fairToy(t, false), mc.Options{Liveness: true, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Aborted {
		t.Fatalf("verdict = %v, want aborted (liveness skipped)", res.Verdict)
	}
	if res.Space.LiveStates != 0 {
		t.Errorf("NDFS explored %d product states after an aborted safety pass", res.Space.LiveStates)
	}
}

// bigLive builds a long safe chain with an unsatisfiable leads-to goal, big
// enough that the NDFS phase crosses several cancellation-poll strides.
// onPremise, when set, sees the counter each time the goal's premise is
// evaluated, so a test can cancel or panic partway through.
func bigLive(t testing.TB, n int, onPremise func(v int)) ts.System {
	return premiseHook{specSystem(t, fmt.Sprintf(`{"format": "verc3_model_v1", "name": "big-live",
	  "vars": [{"name": "v", "type": "int", "min": 0, "max": %[1]d}],
	  "rules": [
	    {"name": "inc", "guard": "v < %[1]d", "action": ["v = v + 1"]},
	    {"name": "loop", "guard": "v == %[1]d", "action": ["v = v"]}]}`, n)), onPremise}
}

// premiseHook wraps a spec system to add the one goal a spec cannot state:
// a leads-to whose premise calls back into the test.
type premiseHook struct {
	ts.System
	onPremise func(v int)
}

// LivenessGoals implements ts.LivenessReporter.
func (h premiseHook) LivenessGoals() []ts.LivenessGoal {
	return []ts.LivenessGoal{{
		Name: "never-reached",
		Kind: ts.LeadsTo,
		P: func(s ts.State) bool {
			if h.onPremise != nil {
				v, err := strconv.Atoi(s.Key())
				if err != nil {
					panic(err)
				}
				h.onPremise(v)
			}
			return false
		},
		Q: func(ts.State) bool { return false },
	}}
}

// TestCancelDuringLiveness: cancellation raised while the NDFS phase is
// running aborts it at the next poll instead of finishing the search.
func TestCancelDuringLiveness(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	var calls atomic.Int64
	sys := bigLive(t, 5000, func(int) {
		if calls.Add(1) == 10 {
			cancel(errors.New("mid-liveness"))
		}
	})
	res, err := mc.CheckCtx(ctx, sys, mc.Options{Liveness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Aborted {
		t.Fatalf("verdict = %v, want aborted", res.Verdict)
	}
	if !strings.Contains(res.Abort.Cause.Error(), "mid-liveness") {
		t.Errorf("cause = %v", res.Abort.Cause)
	}
}

// TestPanicDuringLiveness: a panic out of a goal predicate is contained
// like any other model-code panic, with the product state's key rendered.
func TestPanicDuringLiveness(t *testing.T) {
	sys := bigLive(t, 100, func(v int) {
		if v == 7 {
			panic("predicate bug")
		}
	})
	res, err := mc.CheckCtx(context.Background(), sys, mc.Options{Liveness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Aborted || !res.Abort.Panic {
		t.Fatalf("verdict = %v, abort = %+v, want panic abort", res.Verdict, res.Abort)
	}
	if !strings.Contains(res.Abort.Cause.Error(), "predicate bug") {
		t.Errorf("cause = %v", res.Abort.Cause)
	}
}

// TestAbortedVerdictString pins the display name used in reports.
func TestAbortedVerdictString(t *testing.T) {
	if got := mc.Aborted.String(); got != "aborted" {
		t.Errorf("Aborted.String() = %q, want aborted", got)
	}
}

// TestCancellationStorm hammers cancellation timing under every walk:
// the cancel lands at a different point of the run each iteration, and
// every outcome must be a clean Success or Aborted — never an error, a
// deadlock, or a torn result. Run under -race this doubles as the data
// race check on the abort publication paths.
func TestCancellationStorm(t *testing.T) {
	drivers(t, func(t *testing.T, opt mc.Options) {
		// Cancelled parallel levels must not strand workers: whatever the
		// storm below does, the goroutine count has to come back down.
		before := runtime.NumGoroutine()
		defer func() {
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<20)
				t.Errorf("goroutines leaked: %d before, %d after\n%s",
					before, after, buf[:runtime.Stack(buf, true)])
			}
		}()
		for i := 0; i < 12; i++ {
			ctx, cancel := context.WithCancelCause(context.Background())
			var n atomic.Int64
			trigger := int64(1 + i*700) // sweeps from "immediately" past several poll strides
			sys := newChain(8000)
			sys.hook = func(int) {
				if n.Add(1) == trigger {
					cancel(errors.New("storm"))
				}
			}
			res, err := mc.CheckCtx(ctx, sys, opt)
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			if res.Verdict != mc.Success && res.Verdict != mc.Aborted {
				t.Fatalf("iter %d: verdict = %v", i, res.Verdict)
			}
			if res.Verdict == mc.Aborted && res.Abort == nil {
				t.Fatalf("iter %d: aborted without abort info", i)
			}
			cancel(nil)
		}
	})
}
