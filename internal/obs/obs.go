// Package obs is the live-telemetry layer of VerC3: the exploration
// kernel, the nested-DFS liveness pass and the synthesis engine publish
// counters, gauges, phase timings and progress events into a Collector,
// and readers — the CLIs' -progress renderer and the -report run report —
// pull immutable Snapshots back out while the run is still in flight.
//
// # Counter sharding and the hot-path contract
//
// The exploration hot path expands tens of millions of states per second;
// it cannot afford shared atomics, let alone locks, per state. Writers
// therefore stage counts in a private Worker — a plain uint64 array owned
// by exactly one goroutine at a time — and publish the *delta* since the
// last publication into one of the Collector's cache-line-padded slots
// with a single atomic add per counter, every flushEvery expansions
// (Worker.BeginExpansion) or explicitly (Worker.Flush). The per-state
// cost is one plain increment; the racy part is batched, wait-free, and
// tear-free. Because publication is always a non-negative atomic add,
// every per-slot value is monotone, and so is each counter of successive
// Snapshots — the property the -race concurrency test pins.
//
// Slots are handed out round-robin (NewWorker), so concurrent synthesis
// dispatches sharing one Collector may share a slot; delta-adds make that
// merely contended, never incorrect. Gauges (depth, frontier size,
// visited bytes, …) are last-writer-wins atomics set at BFS level
// boundaries, where a stale read is meaningless rather than wrong.
//
// # Snapshot semantics
//
// Collector.Snapshot sums the slots with atomic loads into an immutable
// value. A snapshot is *eventually consistent*: staged counts not yet
// flushed are invisible, and counters flushed by different workers may be
// read a few microseconds apart — but each counter is exact as of some
// recent moment and never decreases across snapshots. Drivers flush all
// workers at level boundaries and at run end, so a post-run snapshot
// equals the run's statespace.Stats exactly (the zoo-wide equivalence
// test pins this).
//
// All methods on a nil *Collector and nil *Worker are no-ops, so
// instrumented code needs no "is telemetry on?" branches.
package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Counter enumerates the monotone event counters. The exploration group
// (CStates … CRed) is published by the mc kernel and equals the run's
// statespace.Stats at every flush point; the synthesis group (CEvaluated
// … CSolutions) is published by the core engine once per dispatch.
type Counter int

const (
	// CStates counts distinct states admitted to the visited set.
	CStates Counter = iota
	// CTransitions counts successful transition firings (safety pass).
	CTransitions
	// CDuplicates counts states rejected by the visited set.
	CDuplicates
	// CAborts counts branches aborted at wildcard holes.
	CAborts
	// CRecycled counts states handed back to the successor pool.
	CRecycled
	// CBlue and CRed count nested-DFS product states admitted to the
	// outer (blue) and inner (red) liveness searches.
	CBlue
	CRed
	// CEvaluated counts synthesis model-checker dispatches.
	CEvaluated
	// CSkipped counts candidates pruned without model checking.
	CSkipped
	// CSolutions counts solutions recorded during the search.
	CSolutions

	// NumCounters is the number of counters; not itself a counter.
	NumCounters
)

// counterNames are the wire names in JSON.
var counterNames = [NumCounters]string{
	"states", "transitions", "duplicates", "wildcard_aborts", "recycled",
	"ndfs_blue", "ndfs_red", "evaluated", "skipped", "solutions",
}

// String returns the counter's wire name.
func (c Counter) String() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// Gauge enumerates the last-writer-wins level gauges.
type Gauge int

const (
	// GDepth is the current BFS depth (level being expanded).
	GDepth Gauge = iota
	// GFrontier is the frontier size at the last level boundary.
	GFrontier
	// GVisitedBytes is the visited-set backend's in-RAM footprint.
	GVisitedBytes
	// GSpilledBytes and GSpillRuns mirror the spill backend's on-disk
	// footprint and live run-file count.
	GSpilledBytes
	GSpillRuns
	// GMaxStates is the -max-states cap (0 = unlimited); readers derive
	// "% of cap" from it.
	GMaxStates
	// GPoolHits and GPoolMisses are the successor pool's traffic in the
	// current check, summed over its workers' own tallies (ts.Env). Gauges,
	// not counters: concurrent synthesis dispatches may share a collector,
	// and each publishes its own check's exact figures, the last writer
	// winning.
	GPoolHits
	GPoolMisses
	// GRound, GHoles, GPatterns and GCandidates describe synthesis
	// progress: current prune round, holes discovered, pruning patterns
	// inserted, and the nominal candidate-space size.
	GRound
	GHoles
	GPatterns
	GCandidates

	// NumGauges is the number of gauges; not itself a gauge.
	NumGauges
)

// gaugeNames are the wire names in JSON.
var gaugeNames = [NumGauges]string{
	"depth", "frontier", "visited_bytes", "spilled_bytes", "spill_runs",
	"max_states", "pool_hits", "pool_misses", "round", "holes", "patterns",
	"candidates",
}

// String returns the gauge's wire name.
func (g Gauge) String() string {
	if g >= 0 && g < NumGauges {
		return gaugeNames[g]
	}
	return fmt.Sprintf("Gauge(%d)", int(g))
}

var (
	counterIndex = func() map[string]Counter {
		m := make(map[string]Counter, NumCounters)
		for i, n := range counterNames {
			m[n] = Counter(i)
		}
		return m
	}()
	gaugeIndex = func() map[string]Gauge {
		m := make(map[string]Gauge, NumGauges)
		for i, n := range gaugeNames {
			m[n] = Gauge(i)
		}
		return m
	}()
)

// slot is one padded shard of the shared counters. NumCounters atomics are
// 80 bytes; the padding rounds the struct to two cache lines so
// neighbouring slots' adds never false-share.
type slot struct {
	c [NumCounters]atomic.Uint64
	_ [128 - (NumCounters*8)%128]byte
}

// maxTimeline bounds the timeline ring; older entries are decimated 2:1
// when it fills, so arbitrarily long runs keep a bounded, evenly spaced
// trajectory.
const maxTimeline = 512

// maxEvents bounds the retained event log (oldest dropped first).
const maxEvents = 512

// Collector aggregates one run's (or one synthesis search's) telemetry.
// Writers publish through Workers, Count, SetGauge, ObservePhase and
// Event; readers pull Snapshot, Timeline, Phases and Events. All methods
// are safe for concurrent use, and all are no-ops on a nil receiver.
type Collector struct {
	start  time.Time
	slots  []slot
	next   atomic.Uint64 // round-robin slot cursor for NewWorker
	gauges [NumGauges]atomic.Uint64
	phases [NumPhases]Histogram

	mu       sync.Mutex
	timeline []Snapshot
	tlSeen   uint64 // marks observed since the last stride change
	tlStride uint64 // keep 1 of every tlStride marks
	events   []Event
	dropped  int // events dropped to the maxEvents cap
}

// New builds a Collector. The slot pool is sized to the machine (two per
// processor, at least eight): enough that a multi-worker run's workers
// rarely share a slot, small enough that Snapshot's sweep stays cheap.
func New() *Collector {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return &Collector{
		start:    time.Now(),
		slots:    make([]slot, n),
		tlStride: 1,
	}
}

// NewWorker hands out a writer handle bound to one of the padded slots
// (round-robin). Each Worker must be used by at most one goroutine at a
// time; any number of Workers may share a slot. Nil-safe: a nil Collector
// returns a nil Worker, whose methods all no-op.
func (c *Collector) NewWorker() *Worker {
	if c == nil {
		return nil
	}
	i := (c.next.Add(1) - 1) % uint64(len(c.slots))
	return &Worker{c: c, slot: &c.slots[i]}
}

// Count publishes n directly to the shared counters — the convenience
// path for low-frequency writers (the synthesis engine counts once per
// dispatch) that don't warrant Worker staging.
func (c *Collector) Count(ct Counter, n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.slots[0].c[ct].Add(n)
}

// SetGauge publishes a last-writer-wins gauge value.
func (c *Collector) SetGauge(g Gauge, v uint64) {
	if c == nil {
		return
	}
	c.gauges[g].Store(v)
}

// ObservePhase records one batched phase duration into the phase
// histogram (see hist.go). Callers batch: one observation per sampled
// expansion or per level merge, never per state.
func (c *Collector) ObservePhase(p Phase, d time.Duration) {
	if c == nil {
		return
	}
	c.phases[p].Observe(d)
}

// Phases snapshots the per-phase timing histograms.
func (c *Collector) Phases() map[string]HistogramSnapshot {
	if c == nil {
		return nil
	}
	out := make(map[string]HistogramSnapshot, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		hs := c.phases[p].Snapshot()
		if hs.Count > 0 {
			out[p.String()] = hs
		}
	}
	return out
}

// Snapshot sums the slots and loads the gauges into an immutable value.
// Successive snapshots are monotone per counter (see the package comment).
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	s.ElapsedNS = time.Since(c.start).Nanoseconds()
	for i := range c.slots {
		for j := Counter(0); j < NumCounters; j++ {
			s.Counters[j] += c.slots[i].c[j].Load()
		}
	}
	for j := range c.gauges {
		s.Gauges[j] = c.gauges[j].Load()
	}
	return s
}

// MarkTimeline appends the current snapshot to the run trajectory. The
// checker marks every BFS level boundary and the sampler marks every tick;
// when the ring fills, every other entry is dropped and the stride
// doubles, keeping the trajectory bounded and evenly spaced.
func (c *Collector) MarkTimeline() {
	if c == nil {
		return
	}
	s := c.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tlSeen++
	if c.tlSeen%c.tlStride != 0 {
		return
	}
	if len(c.timeline) == maxTimeline {
		keep := c.timeline[:0]
		for i := 1; i < maxTimeline; i += 2 {
			keep = append(keep, c.timeline[i])
		}
		c.timeline = keep
		c.tlStride *= 2
		c.tlSeen = 0
		return // this mark is decimated along with its peers
	}
	c.timeline = append(c.timeline, s)
}

// Timeline copies the trajectory recorded so far.
func (c *Collector) Timeline() []Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Snapshot(nil), c.timeline...)
}

// Event appends a structured progress event (synthesis rounds, solutions)
// to the bounded event log, stamping ElapsedNS when the caller left it
// zero. Oldest events are dropped past maxEvents.
func (c *Collector) Event(e Event) {
	if c == nil {
		return
	}
	if e.ElapsedNS == 0 {
		e.ElapsedNS = time.Since(c.start).Nanoseconds()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == maxEvents {
		copy(c.events, c.events[1:])
		c.events = c.events[:maxEvents-1]
		c.dropped++
	}
	c.events = append(c.events, e)
}

// Events copies the retained event log and reports how many older events
// were dropped to the cap.
func (c *Collector) Events() (events []Event, dropped int) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...), c.dropped
}

// Elapsed is the time since the collector was built.
func (c *Collector) Elapsed() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.start)
}

// flushEvery is the Worker publication cadence: one batched atomic-add
// flush per this many expansions. 64 keeps a progress sampler at most a
// few microseconds stale while amortizing the flush to well under a
// nanosecond per state.
const flushEvery = 64

// sampleEvery is the phase-timing sampling cadence: one timed expansion
// (four time.Now pairs) per this many, bounding timer overhead to ~2% of
// expansions while still collecting thousands of samples per second.
const sampleEvery = 64

// Worker is a writer's private staging area: plain-increment counters
// owned by one goroutine, published to the Collector's shared slots as
// batched deltas. The zero cadence methods (Inc, Add) are the per-state
// hot path; BeginExpansion drives the flush and sampling cadences.
// All methods no-op on a nil receiver.
type Worker struct {
	c    *Collector
	slot *slot
	cur  [NumCounters]uint64 // staged totals (plain writes, single owner)
	last [NumCounters]uint64 // published watermark
	ops  uint64
	sw   Stopwatch
}

// Inc stages one count — the per-state hot-path operation.
func (w *Worker) Inc(ct Counter) {
	if w != nil {
		w.cur[ct]++
	}
}

// Add stages n counts.
func (w *Worker) Add(ct Counter, n uint64) {
	if w != nil {
		w.cur[ct] += n
	}
}

// Flush publishes the staged deltas to the shared slot. Drivers call it
// at level boundaries and at run end so post-run snapshots are exact.
func (w *Worker) Flush() {
	if w == nil {
		return
	}
	for i := range w.cur {
		if d := w.cur[i] - w.last[i]; d != 0 {
			w.slot.c[i].Add(d)
			w.last[i] = w.cur[i]
		}
	}
}

// BeginExpansion advances the expansion cadence: every flushEvery calls
// the staged counters flush, and every sampleEvery calls it arms and
// returns the worker's phase stopwatch (nil otherwise — and Stopwatch
// methods are nil-safe, so the caller threads the result unconditionally).
func (w *Worker) BeginExpansion() *Stopwatch {
	if w == nil {
		return nil
	}
	w.ops++
	if w.ops%flushEvery == 0 {
		w.Flush()
	}
	if w.ops%sampleEvery == 1 {
		w.sw = Stopwatch{c: w.c}
		return &w.sw
	}
	return nil
}

// Tick advances only the flush cadence — the path for writers with no
// phase structure (the liveness pass).
func (w *Worker) Tick() {
	if w == nil {
		return
	}
	w.ops++
	if w.ops%flushEvery == 0 {
		w.Flush()
	}
}

// Snapshot is an immutable reading of the collector: elapsed time, the
// counter sums and the gauge values. Counters are monotone across
// successive snapshots of one collector.
type Snapshot struct {
	ElapsedNS int64
	Counters  [NumCounters]uint64
	Gauges    [NumGauges]uint64
}

// Rate returns the average per-second rate of counter ct between prev and
// s (0 when no time elapsed).
func (s Snapshot) Rate(ct Counter, prev Snapshot) float64 {
	dt := s.ElapsedNS - prev.ElapsedNS
	if dt <= 0 {
		return 0
	}
	return float64(s.Counters[ct]-prev.Counters[ct]) / (float64(dt) / 1e9)
}

// jsonSnapshot is the wire form: named, zero-omitted counter and gauge
// maps instead of positional arrays, so reports stay readable and new
// counters never reshuffle old ones.
type jsonSnapshot struct {
	ElapsedNS int64             `json:"elapsed_ns"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
	Gauges    map[string]uint64 `json:"gauges,omitempty"`
}

// MarshalJSON renders the snapshot with named counters/gauges, omitting
// zero values.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	js := jsonSnapshot{ElapsedNS: s.ElapsedNS}
	for i, v := range s.Counters {
		if v != 0 {
			if js.Counters == nil {
				js.Counters = make(map[string]uint64)
			}
			js.Counters[counterNames[i]] = v
		}
	}
	for i, v := range s.Gauges {
		if v != 0 {
			if js.Gauges == nil {
				js.Gauges = make(map[string]uint64)
			}
			js.Gauges[gaugeNames[i]] = v
		}
	}
	return json.Marshal(js)
}

// UnmarshalJSON parses the named wire form back into the positional
// arrays. Unknown names are ignored (forward compatibility with reports
// written by newer builds).
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	var js jsonSnapshot
	if err := json.Unmarshal(b, &js); err != nil {
		return err
	}
	*s = Snapshot{ElapsedNS: js.ElapsedNS}
	for n, v := range js.Counters {
		if i, ok := counterIndex[n]; ok {
			s.Counters[i] = v
		}
	}
	for n, v := range js.Gauges {
		if i, ok := gaugeIndex[n]; ok {
			s.Gauges[i] = v
		}
	}
	return nil
}

// EventKind names the structured progress event types.
type EventKind string

const (
	// EventText is a free-form progress line (the Config.Log adapter).
	EventText EventKind = "text"
	// EventRound marks the start of a synthesis prefix-expansion round.
	EventRound EventKind = "round"
	// EventSolution records a solution found during the search.
	EventSolution EventKind = "solution"
	// EventSolutionDropped records a solution rejected by trace-on
	// re-verification.
	EventSolutionDropped EventKind = "solution-dropped"
	// EventAbort records a run cut short: cancellation, deadline, or a
	// contained model-code panic. Cause carries the cancel cause or panic
	// value; State the offending state's rendered key for panics.
	EventAbort EventKind = "abort"
	// EventCandidatePanic records a synthesis candidate whose evaluation
	// panicked; the candidate is recorded as failed and the search
	// continues.
	EventCandidatePanic EventKind = "candidate-panic"
	// EventIORetry records one retried transient I/O failure in the spill
	// writer (Op names the operation, Round the attempt).
	EventIORetry EventKind = "io-retry"
)

// Event is one structured progress event. Numeric fields are populated
// per kind (Round/Holes/Patterns/Candidates for rounds, Solution/States
// for solutions); Text always carries the rendered human-readable line,
// so string-only consumers need no kind switch.
type Event struct {
	Kind       EventKind `json:"kind"`
	ElapsedNS  int64     `json:"elapsed_ns"`
	Round      int       `json:"round,omitempty"`
	Holes      int       `json:"holes,omitempty"`
	Patterns   int       `json:"patterns,omitempty"`
	Candidates uint64    `json:"candidates,omitempty"`
	Solution   string    `json:"solution,omitempty"`
	States     int       `json:"states,omitempty"`
	// Cause carries an abort's cancel cause or panic value; State the
	// offending state's rendered key (abort/candidate-panic); Op the
	// retried filesystem operation (io-retry).
	Cause string `json:"cause,omitempty"`
	State string `json:"state,omitempty"`
	Op    string `json:"op,omitempty"`
	Text  string `json:"text"`
}
