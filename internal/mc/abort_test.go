package mc_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verc3/internal/dsl"
	"verc3/internal/mc"
	"verc3/internal/toy"
	"verc3/internal/ts"
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
		g := &toy.Graph{SysName: "badinit", Init: []int{0}, Nodes: []toy.Node{{Bad: true}}}
		res, err := mc.CheckCtx(ctx, g, opt)
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
	g := &toy.Graph{SysName: "goal-abort", Init: []int{0}, Nodes: []toy.Node{
		{Plain: []int{1}}, {}, {Goal: true}, // node 2 unreachable
	}}
	res, err := mc.CheckCtx(ctx, g, mc.Options{})
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
	res, err := mc.CheckCtx(ctx, fairToy(false), mc.Options{Liveness: true, RecordTrace: true})
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
// armPanic makes the goal's premise predicate panic partway instead.
type bigLiveState struct{ v int32 }

func (s *bigLiveState) Key() string           { return fmt.Sprintf("%d", s.v) }
func (s *bigLiveState) Clone() ts.State       { cp := *s; return &cp }
func (s *bigLiveState) CopyFrom(src ts.State) { *s = *src.(*bigLiveState) }
func (s *bigLiveState) AppendKey(d []byte) []byte {
	return append(d, byte(s.v), byte(s.v>>8), byte(s.v>>16))
}

func bigLive(n int32, onPremise func(v int32)) ts.System {
	b := dsl.NewBuilder[*bigLiveState]("big-live", &bigLiveState{})
	b.Rule("inc", func(s *bigLiveState) bool { return s.v < n }, func(s *bigLiveState, _ *ts.Env) error { s.v++; return nil })
	b.Rule("loop", func(s *bigLiveState) bool { return s.v == n }, func(*bigLiveState, *ts.Env) error { return nil })
	b.LeadsTo("never-reached", false,
		func(s *bigLiveState) bool {
			if onPremise != nil {
				onPremise(s.v)
			}
			return false
		},
		func(*bigLiveState) bool { return false })
	return b.System()
}

// TestCancelDuringLiveness: cancellation raised while the NDFS phase is
// running aborts it at the next poll instead of finishing the search.
func TestCancelDuringLiveness(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	var calls atomic.Int64
	sys := bigLive(5000, func(int32) {
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
	sys := bigLive(100, func(v int32) {
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
