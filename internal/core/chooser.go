package core

import (
	"sync/atomic"

	"verc3/internal/ts"
)

// runChooser resolves holes for one model-checking run at a time — a
// synthesis worker keeps one and points it at each candidate with begin. It
// implements ts.Chooser (hole resolution) and mc.UsageTracker (per-firing
// usage masks for trace-generalized pruning).
//
// assign is the candidate configuration vector for this run, indexed by hole
// discovery index; holes with index >= len(assign) were discovered after the
// candidate was drawn (or during this very run) and take the default action:
// the wildcard under ModePrune, action 0 under ModeNaive.
//
// Choose may be called concurrently: with Config.MCWorkers > 1 the embedded
// model checker fires transitions from several exploration workers against
// this one chooser, so the usage masks are atomics. The bracketed
// ResetUsage/Usage protocol is only meaningful when firings are sequential —
// which the model checker guarantees by running one worker whenever a
// UsageTracker is installed.
type runChooser struct {
	reg    *registry
	assign []int
	naive  bool

	fireMask atomic.Uint64 // holes consulted since last ResetUsage
	overflow atomic.Bool   // a hole with index >= 64 was consulted
}

// begin points the chooser at the next run's candidate. assign is read,
// never written, and must stay unchanged until the run ends.
func (rc *runChooser) begin(assign []int) {
	rc.assign = assign
	rc.fireMask.Store(0)
	rc.overflow.Store(false)
}

// Choose implements ts.Chooser.
func (rc *runChooser) Choose(hole string, actions []string) (int, error) {
	h, err := rc.reg.discover(hole, actions)
	if err != nil {
		return 0, err
	}
	if h.index < 64 {
		rc.fireMask.Or(uint64(1) << uint(h.index))
	} else {
		rc.overflow.Store(true)
	}
	if h.index < len(rc.assign) {
		a := rc.assign[h.index]
		if a == Wildcard {
			return 0, ts.ErrWildcard
		}
		if a < 0 || a >= len(h.actions) {
			panic("core: assignment out of range for hole " + hole)
		}
		return a, nil
	}
	// Hole discovered after this candidate was drawn.
	if rc.naive {
		return 0, nil // lazy discovery: continue with the default action
	}
	return 0, ts.ErrWildcard
}

// ResetUsage implements mc.UsageTracker.
func (rc *runChooser) ResetUsage() { rc.fireMask.Store(0) }

// Usage implements mc.UsageTracker.
func (rc *runChooser) Usage() uint64 {
	if rc.overflow.Load() {
		// Too many holes for exact masks: saturate so callers fall back to
		// full-vector pruning (always sound).
		return ^uint64(0)
	}
	return rc.fireMask.Load()
}
