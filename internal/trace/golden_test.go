package trace_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/trace"
	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares got against testdata/<name>.golden byte for byte,
// rewriting the file under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s: rendering drifted from golden file.\n--- got ---\n%s--- want ---\n%s(re-bless with -update if intentional)",
			name, got, want)
	}
}

// counterSystem compiles a one-variable spec whose variable is named
// counter, so ShowStates renders states as "counter=N".
func counterSystem(t *testing.T, name, rules, props string) ts.System {
	t.Helper()
	m, err := spec.Parse([]byte(`{"format": "verc3_model_v1", "name": "` + name + `",
	  "vars": [{"name": "counter", "type": "int", "min": 0, "max": 2}],
	  "rules": [` + rules + `]` + props + `}`))
	if err != nil {
		t.Fatal(err)
	}
	return m.System()
}

// TestGoldenSafetyTrace pins the multi-line rendering of an invariant
// violation: header, initial-state line, numbered steps, state lines.
func TestGoldenSafetyTrace(t *testing.T) {
	g := &tstest.Graph{Name: "t", Nodes: []tstest.Node{
		{Plain: []int{1}}, {Plain: []int{2}}, {Bad: true},
	}}
	res, err := mc.Check(g.System(), mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
		t.Fatalf("unexpected result %v/%+v", res.Verdict, res.Failure)
	}
	golden(t, "safety", trace.Format(res.Failure, trace.Options{ShowStates: true}))
}

// TestGoldenDeadlockTrace pins the rendering of a deadlock counterexample:
// a non-quiescent stuck state at the end of a short path (test graphs treat
// terminals as quiescent, so this one is a spec without a quiescent predicate).
func TestGoldenDeadlockTrace(t *testing.T) {
	sys := counterSystem(t, "wedge",
		`{"name": "step", "guard": "counter < 2", "action": ["counter = counter + 1"]}`, "")
	res, err := mc.Check(sys, mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailDeadlock {
		t.Fatalf("unexpected result %v/%+v", res.Verdict, res.Failure)
	}
	golden(t, "deadlock", trace.Format(res.Failure, trace.Options{}))
}

// lassoFailure produces a deterministic liveness lasso with a 2-step stem
// and a 2-step cycle: 0 → 1, then 1 ↔ 2 forever, violating FG(counter == 0).
func lassoFailure(t *testing.T) *mc.FailureInfo {
	t.Helper()
	sys := counterSystem(t, "lasso", `
	  {"name": "warm-up", "guard": "counter == 0", "action": ["counter = 1"]},
	  {"name": "ping", "guard": "counter == 1", "action": ["counter = 2"]},
	  {"name": "pong", "guard": "counter == 2", "action": ["counter = 1"]}`,
		`, "liveness": [{"name": "settles-at-zero", "kind": "eventually_always", "p": "counter == 0"}]`)
	res, err := mc.Check(sys, mc.Options{Liveness: true, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailLiveness {
		t.Fatalf("unexpected result %v/%+v", res.Verdict, res.Failure)
	}
	return res.Failure
}

// TestGoldenLassoTrace pins the lasso format: the cycle-start marker sits
// between stem and cycle, and the closing line names the loop-back step.
func TestGoldenLassoTrace(t *testing.T) {
	f := lassoFailure(t)
	golden(t, "lasso", trace.Format(f, trace.Options{ShowStates: true}))
}

// TestGoldenLassoTruncation pins that MaxSteps elision stops at the cycle:
// even MaxSteps=1 renders the full cycle, eliding only stem steps.
func TestGoldenLassoTruncation(t *testing.T) {
	f := lassoFailure(t)
	golden(t, "lasso-truncated", trace.Format(f, trace.Options{MaxSteps: 1}))
}
