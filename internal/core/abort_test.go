package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/toy"
	"verc3/internal/ts"
)

// bomb is a one-hole sketch whose "bug" action runs model code that
// panics: action 0 ("ok") steps to a quiescent good state, action 1
// ("bug") blows up mid-Fire. The search must contain the panic, record
// that candidate as failed, and still deliver the "ok" solution.
type bomb struct{}

type bombState string

func (s bombState) Key() string     { return string(s) }
func (s bombState) Clone() ts.State { return s }
func (s bombState) AppendKey(d []byte) []byte {
	return append(d, s...)
}

func (bomb) Name() string        { return "bomb" }
func (bomb) Initial() []ts.State { return []ts.State{bombState("init")} }
func (bomb) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	if s.(bombState) != "init" {
		return dst
	}
	return append(dst, ts.Rule{})
}
func (bomb) FireRule(_ ts.State, _ ts.Rule, env *ts.Env) (ts.State, error) {
	a, err := env.Choose("h", []string{"ok", "bug"})
	if err != nil {
		return nil, err
	}
	if a == 1 {
		panic("injected model bug")
	}
	return bombState("done"), nil
}
func (bomb) RuleName(ts.Rule) string    { return "h" }
func (bomb) Invariants() []ts.Invariant { return nil }
func (bomb) Quiescent(ts.State) bool    { return true }

// TestCandidatePanicContained: a panicking candidate is a failed
// candidate — tallied in Panicked, never generalized into a pruning
// pattern — and the search runs to completion with the sound candidate
// as its solution.
func TestCandidatePanicContained(t *testing.T) {
	for _, mode := range []core.Mode{core.ModePrune, core.ModeNaive} {
		t.Run(mode.String(), func(t *testing.T) {
			col := obs.New()
			res, err := core.Synthesize(bomb{}, core.Config{Mode: mode, Obs: col})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Panicked != 1 {
				t.Errorf("Panicked = %d, want 1", st.Panicked)
			}
			if st.Failures != 1 {
				t.Errorf("Failures = %d, want 1 (the panicking candidate)", st.Failures)
			}
			if st.Aborted || st.Truncated {
				t.Errorf("Aborted/Truncated = %v/%v; a contained panic must not stop the search", st.Aborted, st.Truncated)
			}
			if st.Patterns != 0 {
				t.Errorf("Patterns = %d; a panic must never become a pruning pattern", st.Patterns)
			}
			if len(res.Solutions) != 1 || res.Solutions[0].Assign[0] != 0 {
				t.Fatalf("Solutions = %+v, want exactly the \"ok\" candidate", res.Solutions)
			}
			if !res.Solutions[0].Reverified {
				t.Error("surviving solution not re-verified")
			}
			events, _ := col.Events()
			var sawPanic bool
			for _, ev := range events {
				if ev.Kind == obs.EventCandidatePanic {
					sawPanic = true
					if !strings.Contains(ev.Cause, "injected model bug") {
						t.Errorf("panic event cause = %q, want the panic value", ev.Cause)
					}
				}
			}
			if !sawPanic {
				t.Error("no EventCandidatePanic in the event log")
			}
		})
	}
}

// TestSynthesizePreCancelled: a context dead before the search starts
// aborts the run with the cancel cause, no solutions, and no error —
// the partial Result is the report.
func TestSynthesizePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("cut short"))
	res, err := core.SynthesizeCtx(ctx, toy.Figure2(), core.Config{Mode: core.ModePrune})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if !st.Aborted || !strings.Contains(st.AbortCause, "cut short") {
		t.Fatalf("Aborted = %v cause %q, want the cancel cause", st.Aborted, st.AbortCause)
	}
	if st.Truncated {
		t.Error("Truncated set; cancellation must report Aborted instead")
	}
	if len(res.Solutions) != 0 {
		t.Errorf("Solutions = %+v after a dead context", res.Solutions)
	}
	// Only the initial discovery dispatch can have been admitted before
	// the abort was noticed.
	if st.Evaluated > 1 {
		t.Errorf("Evaluated = %d after a dead context", st.Evaluated)
	}
}

// TestSynthesizeCancelMidSearch cancels from the OnEvaluate callback
// after the first dispatch: the run stops early with partial tallies
// and the abort lands in the event log.
func TestSynthesizeCancelMidSearch(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	col := obs.New()
	res, err := core.SynthesizeCtx(ctx, toy.Figure2(), core.Config{
		Mode: core.ModePrune,
		Obs:  col,
		OnEvaluate: func(core.Event) {
			cancel(errors.New("enough candidates"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if !st.Aborted || !strings.Contains(st.AbortCause, "enough candidates") {
		t.Fatalf("Aborted = %v cause %q, want mid-search cancel", st.Aborted, st.AbortCause)
	}
	// Figure 2 needs 10 dispatches under pruning; cancelling after the
	// first must cut that short.
	if st.Evaluated < 1 || st.Evaluated >= 10 {
		t.Errorf("Evaluated = %d, want a strict partial prefix of the search", st.Evaluated)
	}
	events, _ := col.Events()
	var sawAbort bool
	for _, ev := range events {
		if ev.Kind == obs.EventAbort && strings.Contains(ev.Cause, "enough candidates") {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Error("no EventAbort in the event log")
	}
}

// TestSynthesizeRejectsPerRunMCOptions: the checker's own obs hook is a
// per-run concern the engine manages itself; smuggling it in through
// Config.MC is a configuration error.
func TestSynthesizeRejectsPerRunMCOptions(t *testing.T) {
	cases := []struct {
		name string
		mc   mc.Options
		want string
	}{
		{"mc-obs", mc.Options{Obs: obs.New()}, "Config.Obs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.Synthesize(toy.Figure2(), core.Config{MC: tc.mc})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}
