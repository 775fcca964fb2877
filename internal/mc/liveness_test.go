package mc_test

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// specSystem compiles an inline spec for the toy liveness systems.
func specSystem(t testing.TB, doc string) ts.System {
	t.Helper()
	m, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return m.System()
}

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
// "go" (continuously enabled at state 0) excludes it. A spec action must
// change something, so the self-loops are self-assignments.
func fairToy(t testing.TB, fair bool) ts.System {
	return specSystem(t, fmt.Sprintf(`{"format": "verc3_model_v1", "name": "fair-toy",
	  "vars": [{"name": "v", "type": "int", "min": 0, "max": 1}],
	  "rules": [
	    {"name": "stay", "guard": "v == 0", "action": ["v = 0"]},
	    {"name": "go", "guard": "v == 0", "action": ["v = 1"]},
	    {"name": "idle", "guard": "v == 1", "action": ["v = 1"]}],
	  "liveness": [{"name": "eventually-done", "kind": "leads_to", "fair": %t, "p": "v == 0", "q": "v == 1"}],
	  "fairness": [{"name": "go-taken", "enabled": "v == 0", "taken_prefix": "go"}]}`, fair))
}

// TestLivenessToy pins the NDFS driver's verdicts on minimal systems with
// known answers for both goal kinds.
func TestLivenessToy(t *testing.T) {
	opt := mc.Options{Liveness: true, RecordTrace: true}

	t.Run("eventually-always-pass", func(t *testing.T) {
		// 0 → 1, then 1 loops: FG(v==1) holds on the only infinite run.
		sys := specSystem(t, `{"format": "verc3_model_v1", "name": "fg-pass",
		  "vars": [{"name": "v", "type": "int", "min": 0, "max": 1}],
		  "rules": [
		    {"name": "advance", "guard": "v == 0", "action": ["v = 1"]},
		    {"name": "loop", "guard": "v == 1", "action": ["v = 1"]}],
		  "liveness": [{"name": "settles", "kind": "eventually_always", "p": "v == 1"}]}`)
		res, err := mc.Check(sys, opt)
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
		sys := specSystem(t, `{"format": "verc3_model_v1", "name": "fg-fail",
		  "vars": [{"name": "v", "type": "int", "min": 0, "max": 1}],
		  "rules": [
		    {"name": "up", "guard": "v == 0", "action": ["v = 1"]},
		    {"name": "down", "guard": "v == 1", "action": ["v = 0"]}],
		  "liveness": [{"name": "settles", "kind": "eventually_always", "p": "v == 1"}]}`)
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
		sys := fairToy(t, false)
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
		res, err := mc.Check(fairToy(t, true), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success {
			t.Fatalf("verdict = %v, want Success under weak fairness", res.Verdict)
		}
	})

	t.Run("safety-failure-preempts", func(t *testing.T) {
		// A safety violation short-circuits the liveness phase entirely.
		sys := specSystem(t, `{"format": "verc3_model_v1", "name": "bad",
		  "vars": [{"name": "v", "type": "int", "min": 0, "max": 1}],
		  "rules": [{"name": "loop", "action": ["v = v"]}],
		  "invariants": [{"name": "never", "expr": "false"}],
		  "liveness": [{"name": "unchecked", "kind": "eventually_always", "p": "true"}]}`)
		res, err := mc.Check(sys, opt)
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
// the run's wildcard aborts, and a fingerprint of the lasso's (rule, Key
// text) sequence. Hashing the Key text rather than the binary AppendKey
// bytes keeps the pin independent of the key encoding, and hashing it with
// the standard library's 64-bit FNV-1a rather than statespace.OfBytes keeps
// it independent of the checker's fingerprint function: a change of either
// must leave it alone.
type livenessPin struct {
	verdict              mc.Verdict
	goal                 string
	live, red            int
	cycleLen, cycleStart int
	steps, aborts        int
	lasso                uint64
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
		h := fnv.New64a()
		for _, st := range f.Trace {
			h.Write([]byte(st.Rule))
			h.Write([]byte{0})
			h.Write([]byte(st.State.Key()))
			h.Write([]byte{0})
		}
		p.lasso = h.Sum64()
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
			cycleLen: 2, cycleStart: 43, steps: 46, lasso: 0xac5eaa946a49aa50},
		"msi-fair": {verdict: mc.Success, live: 1780, red: 1092},
		"msi-small": {verdict: mc.Failure, goal: writeStall, live: 37, red: 6,
			cycleLen: 2, cycleStart: 6, steps: 9, aborts: 51, lasso: 0xa305a57e740d0326},
		"msi-large": {verdict: mc.Failure, goal: writeStall, live: 37, red: 6,
			cycleLen: 2, cycleStart: 6, steps: 9, aborts: 51, lasso: 0xa305a57e740d0326},
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
			res, err := checkEnv(build(), mc.Options{
				Liveness:    true,
				RecordTrace: true,
			}, ts.NewEnv(wildcardChooser{}), nil)
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
