package core_test

import (
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/spec"
	"verc3/internal/ts"
)

// holderSketch is a two-process token sketch whose single hole decides
// whether the holder passes the token on or keeps it. Both completions are
// safe (no invariant, no deadlock, no reach goal distinguishes them); only
// the liveness goal "the other process eventually holds" separates them —
// "keep" spins on a self-loop lasso that never hands the token over.
func holderSketch(t *testing.T) ts.System {
	t.Helper()
	m, err := spec.Parse([]byte(`{"format": "verc3_model_v1", "name": "holder-sketch",
	  "vars": [{"name": "h", "type": "int", "min": 0, "max": 1}],
	  "rules": [{"name": "move", "action": [{"choose": "after-hold", "among": [
	    {"name": "pass", "do": ["h = 1 - h"]},
	    {"name": "keep"}]}]}],
	  "liveness": [{"name": "p1-eventually-holds", "kind": "leads_to", "p": "true", "q": "h == 1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	return m.System()
}

// TestSynthesisPrunesOnLiveness pins the liveness verdict axis through the
// synthesis engine: a candidate rejected by nothing BUT a liveness lasso
// must be pruned when Config.MC.Liveness is on, and must (wrongly, by
// design) survive when it is off. The winner's re-verification runs with
// the same liveness option, so a fingerprint-collision lasso could not
// sneak a starving candidate through.
func TestSynthesisPrunesOnLiveness(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeNaive, core.ModePrune} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			// Without the liveness axis both completions verify clean.
			res, err := core.Synthesize(holderSketch(t), core.Config{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Solutions) != 2 {
				t.Fatalf("without liveness: %d solutions, want 2 (both completions are safe)", len(res.Solutions))
			}

			// With it, only "pass" survives; "keep" fails on the lasso.
			res, err = core.Synthesize(holderSketch(t), core.Config{
				Mode: mode,
				MC:   mc.Options{Liveness: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Solutions) != 1 {
				t.Fatalf("with liveness: %d solutions, want only pass", len(res.Solutions))
			}
			sol := res.Solutions[0]
			if len(sol.Assign) != 1 || sol.Assign[0] != 0 {
				t.Fatalf("surviving assignment %v, want [0] (pass)", sol.Assign)
			}
			if !sol.Reverified {
				t.Fatal("winner not reverified")
			}
			if res.Stats.Failures == 0 {
				t.Fatal("the keep candidate should have failed, not vanished")
			}
		})
	}
}
