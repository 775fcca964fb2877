// Package trace renders model-checker counterexamples for humans. The
// paper's workflow surfaces minimal error traces to the protocol designer;
// this package turns mc.FailureInfo values into readable reports.
//
// Safety failures render as a straight numbered path. Liveness failures
// (mc.FailLiveness) are lassos: the steps before FailureInfo.CycleStart are
// the stem, a marker line separates them from the cycle, and a closing line
// after the final step names the step the cycle loops back to. Truncation
// never cuts into the cycle — a lasso report without its cycle would be
// meaningless — so MaxSteps elides stem steps only.
package trace

import (
	"fmt"
	"strings"

	"verc3/internal/mc"
)

// Options controls rendering.
type Options struct {
	// MaxSteps truncates long traces (0 = unlimited). For lassos only the
	// stem is truncatable; the cycle is always rendered whole.
	MaxSteps int
	// ShowStates includes each state's String()/Key() rendering.
	ShowStates bool
}

// Format renders a failure as a numbered trace report.
func Format(f *mc.FailureInfo, opt Options) string {
	if f == nil {
		return "no failure"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s violation: %s\n", f.Kind, f.Name)
	if len(f.Trace) == 0 {
		if f.Kind == mc.FailGoal {
			b.WriteString("(no single counterexample trace: the goal is unreached over the whole explored space)\n")
		} else {
			b.WriteString("(trace not recorded; re-run with RecordTrace)\n")
		}
		return b.String()
	}
	lasso := f.Kind == mc.FailLiveness
	steps := f.Trace
	truncated := 0
	if opt.MaxSteps > 0 && len(steps) > opt.MaxSteps {
		truncated = len(steps) - opt.MaxSteps
		if lasso && truncated > f.CycleStart {
			truncated = f.CycleStart // never elide into the cycle
		}
		steps = steps[truncated:]
	}
	if truncated > 0 {
		fmt.Fprintf(&b, "... %d earlier steps elided ...\n", truncated)
	}
	for i, st := range steps {
		n := i + truncated
		// The cycle's transitions are the steps after CycleStart; the
		// marker sits between the step that arrives at the loop state and
		// the first step that repeats forever.
		if lasso && n == f.CycleStart+1 {
			fmt.Fprintf(&b, "     --- cycle starts here (repeats forever) ---\n")
		}
		rule := st.Rule
		if rule == "" {
			rule = "(initial state)"
		}
		fmt.Fprintf(&b, "%3d. %s\n", n, rule)
		if opt.ShowStates {
			fmt.Fprintf(&b, "     %s\n", stateString(st))
		}
	}
	if lasso {
		fmt.Fprintf(&b, "     --- cycle closes: back to step %d ---\n", f.CycleStart)
	}
	return b.String()
}

// stateString prefers a String method over the raw canonical key.
func stateString(st mc.TraceStep) string {
	if s, ok := st.State.(fmt.Stringer); ok {
		return s.String()
	}
	return st.State.Key()
}
