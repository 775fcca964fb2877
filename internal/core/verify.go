package core

import (
	"context"
	"fmt"

	"verc3/internal/mc"
	"verc3/internal/ts"
)

// FixedChooser resolves every hole to a fixed, named action. It lets a
// designer (or a test) model-check one specific candidate outside the
// synthesis loop — e.g. to re-verify a reported solution with trace
// recording enabled, or to dissect why a particular completion fails.
//
// Holes missing from the map resolve to the wildcard, so a partial
// assignment checks the candidate "as far as it is specified".
type FixedChooser map[string]string

// Choose implements ts.Chooser.
func (f FixedChooser) Choose(hole string, actions []string) (int, error) {
	want, ok := f[hole]
	if !ok {
		return 0, ts.ErrWildcard
	}
	for i, a := range actions {
		if a == want {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: hole %q has no action named %q (have %v)", hole, want, actions)
}

// Assignment renders a synthesis solution as a hole-name → action-name map,
// suitable for FixedChooser.
func (r *Result) Assignment(i int) FixedChooser {
	sol := r.Solutions[i]
	out := FixedChooser{}
	for j, a := range sol.Assign {
		if a == Wildcard {
			continue
		}
		out[r.HoleNames[j]] = r.HoleActions[j][a]
	}
	return out
}

// VerifySolution re-checks solution i of a synthesis result against the
// skeleton with the given model-checker options (typically RecordTrace for
// a designer-facing report). The verdict must be Success for a genuine
// solution; anything else indicates a harness misuse (e.g. different
// options reveal a cap) and is returned for inspection rather than hidden.
func VerifySolution(sys ts.System, r *Result, i int, opt mc.Options) (*mc.Result, error) {
	if i < 0 || i >= len(r.Solutions) {
		return nil, fmt.Errorf("core: solution index %d out of range (%d solutions)", i, len(r.Solutions))
	}
	return mc.NewSession(sys, opt).Check(context.Background(), ts.NewEnv(r.Assignment(i)), nil)
}
