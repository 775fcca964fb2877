package mc

import (
	"time"

	"verc3/internal/obs"
	"verc3/internal/visited"
)

// This file is the kernel's glue onto internal/obs. Counters ride the
// per-worker staging path (obs.Worker) inside the expansion hot loops in
// explorer.go / liveness.go; everything coarser — gauges, the snapshot
// timeline, the level-merge phase timing — funnels through the two
// helpers here, so every width publishes identically.

// endLevel is the BFS level boundary: level-aware backends
// (visited.LevelMarker) reorganize — the spill backend merges its run files
// here, timed under the level_merge phase — and the level's telemetry is
// published; frontier is the size of the level about to be expanded. A
// non-nil error aborts the exploration: the store's answers are no longer
// trustworthy.
func (e *explorer) endLevel(frontier int) error {
	var err error
	if lm, ok := e.visited.(visited.LevelMarker); ok {
		t0 := time.Now()
		err = lm.EndLevel()
		e.opt.Obs.ObservePhase(obs.PhaseLevelMerge, time.Since(t0))
	}
	e.publish(frontier)
	return err
}

// publish flushes every worker's staged counters, republishes the gauges —
// depth, frontier size, visited-set footprint, spill and pool traffic — and
// appends a timeline mark, so a snapshot taken at a level boundary or after
// the run is exact however the run ended. Called only while no worker is
// running, after sum. store.Stats() is a few loads per backend — fine per
// level, far too hot per state. The pool figures are gauges, not counters:
// the underlying ts.PoolReporter totals are per-system and shared across
// concurrent synthesis dispatches (see obs.GPoolHits).
func (e *explorer) publish(frontier int) {
	o := e.opt.Obs
	if o == nil {
		return
	}
	for i := range e.workers {
		e.workers[i].ow.Flush()
	}
	o.SetGauge(obs.GDepth, uint64(e.res.Stats.MaxDepth))
	o.SetGauge(obs.GFrontier, uint64(frontier))
	vs := e.visited.Stats()
	o.SetGauge(obs.GVisitedBytes, uint64(vs.Bytes))
	o.SetGauge(obs.GSpilledBytes, uint64(vs.SpilledBytes))
	o.SetGauge(obs.GSpillRuns, uint64(vs.SpillRuns))
	if e.pool != nil {
		h, m := e.pool.PoolStats()
		o.SetGauge(obs.GPoolHits, h-e.hits0)
		o.SetGauge(obs.GPoolMisses, m-e.misses0)
	}
	o.MarkTimeline()
}
