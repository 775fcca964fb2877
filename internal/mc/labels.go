package mc

import (
	"context"
	"runtime/pprof"

	"verc3/internal/obs"
)

// phaseLabels attributes the exploration inner loop's time to its phases
// via runtime/pprof goroutine labels, so a -cpuprofile shows where
// exploration time actually goes instead of one opaque run/expand frame.
// The phases and their names are obs.Phase's — the "mc-phase" label values
// are the -report phase names, from the one table. The label contexts are
// built once per run; each phase switch is a single SetGoroutineLabels call
// on the current worker goroutine. A nil *phaseLabels
// (Options.ProfileLabels off, the default) makes set a no-op nil-check,
// keeping the cost out of the unprofiled hot path.
type phaseLabels [obs.NumPhases]context.Context

// newPhaseLabels builds the per-run label contexts, or nil when disabled.
func newPhaseLabels(opt Options) *phaseLabels {
	if !opt.ProfileLabels {
		return nil
	}
	var l phaseLabels
	for p := range l {
		l[p] = pprof.WithLabels(context.Background(), pprof.Labels("mc-phase", obs.Phase(p).String()))
	}
	return &l
}

// set labels the current goroutine as being in phase p.
func (l *phaseLabels) set(p obs.Phase) {
	if l != nil {
		pprof.SetGoroutineLabels(l[p])
	}
}

// clear drops the goroutine's labels (end of a worker's run).
func (l *phaseLabels) clear() {
	if l != nil {
		pprof.SetGoroutineLabels(context.Background())
	}
}
