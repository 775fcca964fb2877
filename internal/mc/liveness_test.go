package mc_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"verc3/internal/dsl"
	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/statespace"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// lstate is a one-byte counter state for the toy liveness systems.
type lstate struct{ v int8 }

func (s *lstate) Key() string               { return fmt.Sprintf("%d", s.v) }
func (s *lstate) Clone() ts.State           { cp := *s; return &cp }
func (s *lstate) CopyFrom(src ts.State)     { *s = *src.(*lstate) }
func (s *lstate) AppendKey(d []byte) []byte { return append(d, byte(s.v)) }

// replayLasso validates a liveness counterexample end to end: the trace
// replays through the system's own transition relation (replayTrace), the
// final state closes the cycle back to Trace[CycleStart], and the cycle is
// non-empty. This is the fingerprint-collision detector: a lasso assembled
// from colliding product fingerprints would fail to re-fire or would close
// on the wrong state.
func replayLasso(t *testing.T, sys ts.System, f *mc.FailureInfo) {
	t.Helper()
	if f.Kind != mc.FailLiveness {
		t.Fatalf("Kind = %v, want FailLiveness", f.Kind)
	}
	if f.CycleStart < 0 || f.CycleStart >= len(f.Trace)-1 {
		t.Fatalf("CycleStart %d out of range for %d-step trace", f.CycleStart, len(f.Trace))
	}
	last := replayTrace(t, sys, f)
	if got, want := last.Key(), f.Trace[f.CycleStart].State.Key(); got != want {
		t.Fatalf("lasso does not close: final state %q, cycle start %q", got, want)
	}
}

// fairToy is a two-state system where state 0 can loop ("stay") or advance
// ("go") to the absorbing state 1 ("idle" loop). The leads-to goal 0⇝1
// fails on the stay-forever lasso — unless the weak-fairness requirement on
// "go" (continuously enabled at state 0) excludes it.
func fairToy(fair bool) ts.System {
	b := dsl.NewBuilder[*lstate]("fair-toy", &lstate{})
	b.Rule("stay", func(s *lstate) bool { return s.v == 0 }, func(*lstate, *ts.Env) error { return nil })
	b.Rule("go", func(s *lstate) bool { return s.v == 0 }, func(s *lstate, _ *ts.Env) error { s.v = 1; return nil })
	b.Rule("idle", func(s *lstate) bool { return s.v == 1 }, func(*lstate, *ts.Env) error { return nil })
	b.LeadsTo("eventually-done", fair,
		func(s *lstate) bool { return s.v == 0 },
		func(s *lstate) bool { return s.v == 1 })
	b.Fair("go-taken",
		func(s *lstate) bool { return s.v == 0 },
		func(rule string) bool { return rule == "go" })
	return b.System()
}

// TestLivenessToy pins the NDFS driver's verdicts on minimal systems with
// known answers for both goal kinds.
func TestLivenessToy(t *testing.T) {
	opt := mc.Options{Liveness: true, RecordTrace: true}

	t.Run("eventually-always-pass", func(t *testing.T) {
		// 0 → 1, then 1 loops: FG(v==1) holds on the only infinite run.
		b := dsl.NewBuilder[*lstate]("fg-pass", &lstate{})
		b.Rule("advance", func(s *lstate) bool { return s.v == 0 }, func(s *lstate, _ *ts.Env) error { s.v = 1; return nil })
		b.Rule("loop", func(s *lstate) bool { return s.v == 1 }, func(*lstate, *ts.Env) error { return nil })
		b.EventuallyAlways("settles", false, func(s *lstate) bool { return s.v == 1 })
		res, err := mc.Check(b.System(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success {
			t.Fatalf("verdict = %v, want Success", res.Verdict)
		}
	})

	t.Run("eventually-always-fail", func(t *testing.T) {
		// 0 ↔ 1: the run alternates forever, so FG(v==1) is violated by a
		// cycle that keeps revisiting 0.
		b := dsl.NewBuilder[*lstate]("fg-fail", &lstate{})
		b.Rule("up", func(s *lstate) bool { return s.v == 0 }, func(s *lstate, _ *ts.Env) error { s.v = 1; return nil })
		b.Rule("down", func(s *lstate) bool { return s.v == 1 }, func(s *lstate, _ *ts.Env) error { s.v = 0; return nil })
		b.EventuallyAlways("settles", false, func(s *lstate) bool { return s.v == 1 })
		sys := b.System()
		res, err := mc.Check(sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailLiveness {
			t.Fatalf("verdict = %v (%+v), want liveness failure", res.Verdict, res.Failure)
		}
		if res.Failure.Name != "settles" {
			t.Fatalf("failed goal %q, want settles", res.Failure.Name)
		}
		replayLasso(t, sys, res.Failure)
		if res.Space.CycleLen == 0 {
			t.Fatal("CycleLen not recorded")
		}
	})

	t.Run("leadsto-unfair-fails", func(t *testing.T) {
		sys := fairToy(false)
		res, err := mc.Check(sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailLiveness {
			t.Fatalf("verdict = %v, want liveness failure on the stay-forever lasso", res.Verdict)
		}
		replayLasso(t, sys, res.Failure)
		// The violating cycle is the "stay" self-loop.
		for _, step := range res.Failure.Trace[res.Failure.CycleStart+1:] {
			if step.Rule != "stay" {
				t.Fatalf("cycle fires %q, want only stay", step.Rule)
			}
		}
	})

	t.Run("leadsto-fair-passes", func(t *testing.T) {
		// Same system; the weak-fairness requirement on "go" excludes the
		// stay-forever lasso (go is continuously enabled, never taken).
		res, err := mc.Check(fairToy(true), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success {
			t.Fatalf("verdict = %v, want Success under weak fairness", res.Verdict)
		}
	})

	t.Run("safety-failure-preempts", func(t *testing.T) {
		// A safety violation short-circuits the liveness phase entirely.
		b := dsl.NewBuilder[*lstate]("bad", &lstate{})
		b.Rule("loop", nil, func(*lstate, *ts.Env) error { return nil })
		b.Invariant("never", func(*lstate) bool { return false })
		b.EventuallyAlways("unchecked", false, func(*lstate) bool { return true })
		res, err := mc.Check(b.System(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
			t.Fatalf("got %v/%v, want the invariant failure", res.Verdict, res.Failure)
		}
	})
}

// livenessPin is what one liveness check answers, in absolute numbers:
// verdict and failing goal, the NDFS product-state counts, the lasso's shape,
// the run's wildcard aborts, and a fingerprint of the lasso's (rule,
// encoding) sequence.
type livenessPin struct {
	verdict              mc.Verdict
	goal                 string
	live, red            int
	cycleLen, cycleStart int
	steps, aborts        int
	lasso                statespace.Fingerprint
}

func pinOf(res *mc.Result) livenessPin {
	p := livenessPin{
		verdict:  res.Verdict,
		live:     res.Space.LiveStates,
		red:      res.Space.RedStates,
		cycleLen: res.Space.CycleLen,
		aborts:   res.Stats.WildcardAborts,
	}
	if f := res.Failure; f != nil && f.Kind == mc.FailLiveness {
		p.goal, p.cycleStart, p.steps = f.Name, f.CycleStart, len(f.Trace)
		var buf []byte
		for _, st := range f.Trace {
			buf = append(buf, st.Rule...)
			buf = append(buf, 0)
			buf = st.State.(ts.KeyAppender).AppendKey(buf)
			buf = append(buf, 0)
		}
		p.lasso = statespace.OfBytes(buf)
	}
	return p
}

// TestLivenessPinnedAnswers pins the nested-DFS answers in absolute values:
// every zoo entry the equivalence harness runs with liveness goals (at 2
// caches, sketches under the all-wildcard chooser) and the committed
// liveness specs, one sequential traced check each on the flat table. The
// other liveness harnesses compare configurations with each other; this one
// compares the search with itself across changes to the kernel it runs on.
func TestLivenessPinnedAnswers(t *testing.T) {
	const writeStall = "cache0-write-completes"
	want := map[string]livenessPin{
		"token-ring":        {verdict: mc.Success, live: 90, red: 54},
		"token-ring-sketch": {verdict: mc.Unknown, live: 5, red: 2, aborts: 8},
		"peterson":          {verdict: mc.Success, live: 145, red: 85},
		"peterson-sketch":   {verdict: mc.Unknown, live: 14, red: 6, aborts: 32},
		"msi-complete": {verdict: mc.Failure, goal: writeStall, live: 50, red: 5,
			cycleLen: 2, cycleStart: 43, steps: 46, lasso: 0x6f1a61674630dc8d},
		"msi-fair": {verdict: mc.Success, live: 1780, red: 1092},
		"msi-small": {verdict: mc.Failure, goal: writeStall, live: 37, red: 6,
			cycleLen: 2, cycleStart: 6, steps: 9, aborts: 51, lasso: 0x292bf5e40975faea},
		"msi-large": {verdict: mc.Failure, goal: writeStall, live: 37, red: 6,
			cycleLen: 2, cycleStart: 6, steps: 9, aborts: 51, lasso: 0x292bf5e40975faea},
		"spec/tokenring.json": {verdict: mc.Success, live: 90, red: 54},
		"spec/mutex.json":     {verdict: mc.Success, live: 145, red: 85},
	}
	systems := map[string]func() ts.System{}
	for _, name := range []string{"token-ring", "token-ring-sketch", "peterson", "peterson-sketch",
		"msi-complete", "msi-fair", "msi-small", "msi-large"} {
		systems[name] = func() ts.System {
			sys, err := zoo.Get(name, zoo.Params{Caches: 2})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	for _, file := range []string{"tokenring.json", "mutex.json"} {
		systems["spec/"+file] = func() ts.System {
			m, err := spec.LoadFile(filepath.Join("../../examples/specs", file))
			if err != nil {
				t.Fatal(err)
			}
			return m.System()
		}
	}
	for name, build := range systems {
		t.Run(name, func(t *testing.T) {
			res, err := mc.Check(build(), mc.Options{
				Liveness:    true,
				RecordTrace: true,
				Env:         ts.NewEnv(wildcardChooser{}), // complete models never call Choose
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := pinOf(res); got != want[name] {
				t.Errorf("got  %#v\nwant %#v", got, want[name])
			}
		})
	}
}

// TestLivenessZooVerdicts pins the three zoo liveness answers the issue
// names: token-ring and peterson pass (starvation freedom under weak
// fairness), msi-complete fails with a replayable lasso (a write stalls
// forever without delivery fairness — the suite's known-answer negative).
func TestLivenessZooVerdicts(t *testing.T) {
	opt := mc.Options{Liveness: true, RecordTrace: true}

	for _, name := range []string{"token-ring", "peterson"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys, err := zoo.Get(name, zoo.Params{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := mc.Check(sys, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != mc.Success {
				t.Fatalf("%s: verdict = %v (%+v), want Success", name, res.Verdict, res.Failure)
			}
			if res.Space.LiveStates == 0 {
				t.Fatal("liveness phase did not run (LiveStates == 0)")
			}
		})
	}

	t.Run("msi-complete", func(t *testing.T) {
		sys, err := zoo.Get("msi-complete", zoo.Params{Caches: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := mc.Check(sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailLiveness {
			t.Fatalf("verdict = %v (%+v), want a liveness lasso", res.Verdict, res.Failure)
		}
		if !strings.Contains(res.Failure.Name, "write-completes") {
			t.Fatalf("failed goal %q, want a write-completes goal", res.Failure.Name)
		}
		replayLasso(t, sys, res.Failure)
	})
}
