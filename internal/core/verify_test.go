package core_test

import (
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/ts"
)

// TestVerifySolutionRoundTrip: every reported solution re-verifies as
// success through the public API.
func TestVerifySolutionRoundTrip(t *testing.T) {
	g := figure2(t)
	res, err := core.Synthesize(g, core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Solutions {
		out, err := core.VerifySolution(g, res, i, mc.Options{RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict != mc.Success {
			t.Errorf("solution %d re-verifies as %v", i, out.Verdict)
		}
	}
	if _, err := core.VerifySolution(g, res, 99, mc.Options{}); err == nil {
		t.Error("want range error")
	}
}

// TestFixedChooserSemantics covers named resolution, partial assignments
// (wildcard), and unknown action names.
func TestFixedChooserSemantics(t *testing.T) {
	fc := core.FixedChooser{"h": "B"}
	if i, err := fc.Choose("h", []string{"A", "B"}); err != nil || i != 1 {
		t.Errorf("Choose = %d, %v", i, err)
	}
	if _, err := fc.Choose("missing", []string{"A"}); err != ts.ErrWildcard {
		t.Errorf("missing hole: err = %v, want ErrWildcard", err)
	}
	if _, err := fc.Choose("h", []string{"X", "Y"}); err == nil || !strings.Contains(err.Error(), "no action named") {
		t.Errorf("bad action name: err = %v", err)
	}
}

// TestAssignmentExport checks the solution → map rendering.
func TestAssignmentExport(t *testing.T) {
	g := figure2(t)
	res, err := core.Synthesize(g, core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Assignment(0)
	want := map[string]string{"1": "B", "2": "A", "3": "B", "4": "B"}
	for h, act := range want {
		if a[h] != act {
			t.Errorf("assignment[%s] = %s, want %s", h, a[h], act)
		}
	}
}
