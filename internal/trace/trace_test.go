package trace_test

import (
	"strings"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/trace"
	"verc3/internal/ts/tstest"
)

// failure builds a real FailureInfo by checking a failing test graph.
func failure(t *testing.T) *mc.FailureInfo {
	t.Helper()
	g := &tstest.Graph{Name: "t", Nodes: []tstest.Node{
		{Plain: []int{1}}, {Plain: []int{2}}, {Bad: true},
	}}
	res, err := mc.Check(g.System(), mc.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Failure {
		t.Fatal("expected failure")
	}
	return res.Failure
}

// TestFormatBasics checks the report contains the property name and all
// steps in order.
func TestFormatBasics(t *testing.T) {
	f := failure(t)
	out := trace.Format(f, trace.Options{ShowStates: true})
	for _, want := range []string{"invariant violation: no-bad-state", "(initial state)", "n0→n1", "n1→n2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFormatTruncation checks MaxSteps elides the front of long traces.
func TestFormatTruncation(t *testing.T) {
	f := failure(t)
	out := trace.Format(f, trace.Options{MaxSteps: 1})
	if !strings.Contains(out, "2 earlier steps elided") {
		t.Errorf("missing elision note:\n%s", out)
	}
	if strings.Contains(out, "(initial state)") {
		t.Errorf("initial step should be elided:\n%s", out)
	}
}

// TestFormatNilAndGoal covers the no-trace paths.
func TestFormatNilAndGoal(t *testing.T) {
	if got := trace.Format(nil, trace.Options{}); got != "no failure" {
		t.Errorf("nil: %q", got)
	}
	goal := &mc.FailureInfo{Kind: mc.FailGoal, Name: "g"}
	out := trace.Format(goal, trace.Options{})
	if !strings.Contains(out, "no single counterexample") {
		t.Errorf("goal: %q", out)
	}
	inv := &mc.FailureInfo{Kind: mc.FailInvariant, Name: "x"}
	if !strings.Contains(trace.Format(inv, trace.Options{}), "re-run with RecordTrace") {
		t.Error("missing RecordTrace hint")
	}
}
