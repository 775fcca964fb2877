package main

import (
	"bytes"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"verc3/internal/core"
	"verc3/internal/msi"
)

// tracedSystem is the synthesis workloads' span source: it embeds the
// model, so every optional interface (pooling, appender enumeration,
// goals) is promoted unchanged, and overrides only PoolStats, the first
// call a check makes into the system (mc snapshots the pool counters
// before it builds its visited set). That call marks the check's start; the
// one at the check's end finds the check in flight and marks nothing.
type tracedSystem struct {
	*msi.System
	st *synthTracer
}

func (s *tracedSystem) PoolStats() (hits, misses uint64) {
	s.st.checkStart()
	return s.System.PoolStats()
}

// synthTracer turns check starts (tracedSystem) and check ends
// (core.Config.OnEvaluate) into spans: core.dispatch is start -> end,
// core.select is a worker's previous end -> its next start (candidate
// enumeration, pattern matching, waiting), core.reverify is the last end
// -> Synthesize returns. With one worker the three tile the traced wall;
// with more, select and dispatch are summed over workers.
type synthTracer struct {
	mu sync.Mutex
	t  *tracer
	// par keys the open dispatches by goroutine: with Workers > 1 a start
	// and an end can only be paired through the goroutine they share.
	par     bool
	open    map[int64]openCheck // goroutine -> its check in flight
	lastEnd map[int64]int64     // goroutine -> end of its previous check
	// globalEnd is the latest end seen by anyone (initially the Synthesize
	// call): a fresh round's worker goroutines select from there.
	globalEnd int64
	seq       uint32
	selects   []int64
	checks    []int64
}

type openCheck struct {
	prev  int64 // end of the worker's previous check
	start int64
}

func newSynthTracer(t *tracer, par bool) *synthTracer {
	return &synthTracer{t: t, par: par, open: map[int64]openCheck{}, lastEnd: map[int64]int64{}, globalEnd: t.now()}
}

// begin marks the Synthesize call: the first check's select gap starts here.
func (st *synthTracer) begin() { st.globalEnd = st.t.now() }

func (st *synthTracer) goroutine() int64 {
	if !st.par {
		return 0
	}
	return goid()
}

func (st *synthTracer) checkStart() {
	g := st.goroutine()
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, inFlight := st.open[g]; inFlight {
		return
	}
	prev, ok := st.lastEnd[g]
	if !ok {
		prev = st.globalEnd
	}
	st.open[g] = openCheck{prev: prev, start: st.t.now()}
}

// checkEnd is core.Config.OnEvaluate. It records the check and the gap
// that led to it together, so a check that never ends — a
// re-verification, invisible to OnEvaluate — leaves no span behind and
// falls into core.reverify.
func (st *synthTracer) checkEnd(core.Event) {
	g := st.goroutine()
	st.mu.Lock()
	defer st.mu.Unlock()
	oc, ok := st.open[g]
	if !ok {
		return
	}
	now := st.t.now()
	delete(st.open, g)
	st.lastEnd[g], st.globalEnd = now, now
	st.selects = append(st.selects, oc.start-oc.prev)
	st.checks = append(st.checks, now-oc.start)
	st.t.record(clsSelect, st.seq, oc.prev, oc.start)
	st.t.record(clsDispatch, st.seq, oc.start, now)
	st.seq++
}

// finish closes the trace when Synthesize returns.
func (st *synthTracer) finish() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.t.record(clsReverify, st.seq, st.globalEnd, st.t.now())
}

// goid parses the current goroutine's id from its stack header. It costs a
// microsecond or two per call, which only the traced parallel synthesis
// pays — a handful of times per ~90 us check.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// percentileUS returns the p-quantile (0..1) of ns durations, in
// microseconds, by nearest rank; 0 for no samples.
func percentileUS(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}
