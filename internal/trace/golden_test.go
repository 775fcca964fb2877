package trace_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"verc3/internal/dsl"
	"verc3/internal/mc"
	"verc3/internal/toy"
	"verc3/internal/trace"
	"verc3/internal/ts"
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

// counter is a tiny deterministic state for the golden systems, with a
// stable String rendering so ShowStates output is pinned too.
type counter struct{ v int8 }

func (s *counter) Key() string               { return string(rune('0' + s.v)) }
func (s *counter) Clone() ts.State           { cp := *s; return &cp }
func (s *counter) AppendKey(d []byte) []byte { return append(d, byte(s.v)) }
func (s *counter) String() string            { return "counter=" + s.Key() }

// TestGoldenSafetyTrace pins the multi-line rendering of an invariant
// violation: header, initial-state line, numbered steps, state lines.
func TestGoldenSafetyTrace(t *testing.T) {
	g := &toy.Graph{SysName: "t", Init: []int{0}, Nodes: []toy.Node{
		{Plain: []int{1}}, {Plain: []int{2}}, {Bad: true},
	}}
	res, err := mc.Check(g, mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailInvariant {
		t.Fatalf("unexpected result %v/%+v", res.Verdict, res.Failure)
	}
	golden(t, "safety", trace.Format(res.Failure, trace.Options{ShowStates: true}))
	golden(t, "safety-summary", trace.Summary(res.Failure)+"\n")
}

// TestGoldenDeadlockTrace pins the rendering of a deadlock counterexample:
// a non-quiescent stuck state at the end of a short path (toy graphs treat
// terminals as quiescent, so this one is built on the DSL, which does not).
func TestGoldenDeadlockTrace(t *testing.T) {
	b := dsl.NewBuilder[*counter]("wedge", &counter{})
	b.Rule("step", func(s *counter) bool { return s.v < 2 }, func(s *counter, _ *ts.Env) error { s.v++; return nil })
	res, err := mc.Check(b.System(), mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure || res.Failure.Kind != mc.FailDeadlock {
		t.Fatalf("unexpected result %v/%+v", res.Verdict, res.Failure)
	}
	golden(t, "deadlock", trace.Format(res.Failure, trace.Options{}))
}

// lassoFailure produces a deterministic liveness lasso with a 2-step stem
// and a 2-step cycle: 0 → 1, then 1 ↔ 2 forever, violating FG(v == 0).
func lassoFailure(t *testing.T) *mc.FailureInfo {
	t.Helper()
	b := dsl.NewBuilder[*counter]("lasso", &counter{})
	b.Rule("warm-up", func(s *counter) bool { return s.v == 0 }, func(s *counter, _ *ts.Env) error { s.v = 1; return nil })
	b.Rule("ping", func(s *counter) bool { return s.v == 1 }, func(s *counter, _ *ts.Env) error { s.v = 2; return nil })
	b.Rule("pong", func(s *counter) bool { return s.v == 2 }, func(s *counter, _ *ts.Env) error { s.v = 1; return nil })
	b.EventuallyAlways("settles-at-zero", false, func(s *counter) bool { return s.v == 0 })
	res, err := mc.Check(b.System(), mc.Options{Liveness: true, RecordTrace: true})
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
	golden(t, "lasso-summary", trace.Summary(f)+"\n")
}

// TestGoldenLassoTruncation pins that MaxSteps elision stops at the cycle:
// even MaxSteps=1 renders the full cycle, eliding only stem steps.
func TestGoldenLassoTruncation(t *testing.T) {
	f := lassoFailure(t)
	golden(t, "lasso-truncated", trace.Format(f, trace.Options{MaxSteps: 1}))
}
