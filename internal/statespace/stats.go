package statespace

import "fmt"

// FingerprintBytes is the per-state payload of the visited set: one 64-bit
// fingerprint. The structural retained-bytes estimate falls back to it as
// the per-state floor when no backend measurement (VisitedBytes) is
// available.
const FingerprintBytes = 8

// Stats is the memory-oriented profile of one exploration run, the number
// that the trace-optional representation exists to shrink. It is filled by
// every exploration and aggregated across synthesis dispatches by the
// engine; the cmd/ tools print it behind their -stats flag.
type Stats struct {
	// States is the number of distinct states in the visited set.
	States int `json:"states"`
	// Transitions is the number of successful transition firings.
	Transitions int `json:"transitions"`
	// PeakFrontier is the frontier high-water mark: the largest number of
	// frontier entries the checker held at once. There is one definition,
	// the one the kernel actually retains. Under BFS a level stays in its
	// buffer while it is expanded (entries are not released one by one), so
	// the mark is the largest coexistence of a level and the next level it
	// emitted — at any worker count, one included — not the largest single
	// level. Under DFS it is the stack's greatest height. With trace
	// recording off it bounds the number of states alive at once.
	PeakFrontier int `json:"peak_frontier"`
	// TraceNodes is the number of parent-linked trace-store nodes retained.
	// Always 0 with trace recording off — the acceptance criterion of the
	// no-trace representation.
	TraceNodes int `json:"trace_nodes"`
	// BytesRetained is the structural estimate of exploration memory at its
	// peak: the visited set (VisitedBytes when the backend measured it,
	// States×FingerprintBytes otherwise), PeakFrontier entries of the
	// frontier — a level and its successors together, as the checker holds
	// them — and the trace store. It deliberately counts only checker-owned structures
	// (not what model states themselves point to), so trace-on versus
	// trace-off runs of the same system are directly comparable.
	BytesRetained int64 `json:"bytes_retained"`
	// VisitedBytes is the visited-set backend's measured storage footprint
	// (internal/visited Store.Stats().Bytes): slot arrays and stripe structs
	// for the flat backend, tier tables plus fence index for spill. Unlike
	// the seed's 8-bytes-per-state estimate it includes the slack of
	// power-of-two tables. Zero when no backend reported (hand-built Stats).
	VisitedBytes int64 `json:"visited_bytes"`
	// Backend names the visited-set backend ("flat", "spill"; "mixed" after
	// merging runs with different backends).
	Backend string `json:"backend"`
	// SpilledBytes is the spill backend's on-disk footprint: the summed
	// size of its sorted fingerprint run files at the end of the run.
	// VisitedBytes deliberately excludes it — the split is the backend's
	// whole point (bounded RAM, disk-resident bulk). Zero for RAM-only
	// backends; after Merge, the largest single run (like VisitedBytes).
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	// SpillRuns is the spill backend's live run-file count at the end of
	// the run (1 after a level-boundary merge). Zero for other backends.
	SpillRuns int `json:"spill_runs,omitempty"`
	// Mallocs and AllocBytes are runtime.ReadMemStats deltas (heap
	// allocation count and cumulative bytes). The checker never fills them —
	// ReadMemStats stops the world — so they are zero unless a caller
	// brackets its run with one pair of reads, as the cmd/ tools do for
	// -stats. The counters are process-global: they cover everything the
	// process allocated between the two reads.
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// PoolHits and PoolMisses are the successor pool's traffic over the run
	// (the workers' ts.Env tallies): Fire clones served from recycled
	// storage vs built fresh. Recycled counts the states the checker handed back to
	// the pool: rejected duplicates, expanded states in traceless mode, and
	// the liveness phase's rejected product successors, dead monitor
	// branches and popped stack states. All zero when the system does not
	// pool or recycling was disabled (mc.Options.NoRecycle).
	PoolHits   uint64 `json:"pool_hits,omitempty"`
	PoolMisses uint64 `json:"pool_misses,omitempty"`
	Recycled   uint64 `json:"recycled,omitempty"`
	// LiveStates and RedStates are the nested-DFS liveness phase's product
	// state counts: distinct product states admitted to the outer (blue)
	// search and to the nested (red) cycle search, summed over all goals.
	// Product states are (system state, monitor, fairness copy) triples, so
	// LiveStates can exceed the safety pass's States. Both zero when no
	// liveness phase ran.
	LiveStates int `json:"live_states,omitempty"`
	RedStates  int `json:"red_states,omitempty"`
	// CycleLen is the length (in transitions) of the reported accepting
	// cycle when a liveness goal failed; zero otherwise. After Merge, the
	// longest single cycle.
	CycleLen int `json:"cycle_len,omitempty"`
}

// SetRetained computes BytesRetained from the structural counters, given
// the caller's frontier-entry and trace-node footprints: PeakFrontier
// entries are charged, by PeakFrontier's one definition. The visited set
// contributes its measured backend footprint (VisitedBytes) when one was
// recorded, else the 8-bytes-per-state floor.
func (s *Stats) SetRetained(itemBytes, nodeBytes uintptr) {
	vb := s.VisitedBytes
	if vb == 0 {
		vb = int64(s.States) * FingerprintBytes
	}
	s.BytesRetained = vb +
		int64(s.PeakFrontier)*int64(itemBytes) +
		int64(s.TraceNodes)*int64(nodeBytes)
}

// Merge folds another run's profile into s for cross-run aggregation (the
// synthesis engine merges one Stats per model-checker dispatch): counters
// sum, while PeakFrontier and BytesRetained keep the largest single run.
// The merged peaks are therefore per-dispatch figures, not a process
// high-water mark: when dispatches run concurrently (cross-candidate
// synthesis workers) their footprints coexist, and peak process memory can
// approach the sum over the worker count.
func (s *Stats) Merge(o Stats) {
	s.States += o.States
	s.Transitions += o.Transitions
	if o.PeakFrontier > s.PeakFrontier {
		s.PeakFrontier = o.PeakFrontier
	}
	s.TraceNodes += o.TraceNodes
	if o.BytesRetained > s.BytesRetained {
		s.BytesRetained = o.BytesRetained
	}
	if o.VisitedBytes > s.VisitedBytes {
		s.VisitedBytes = o.VisitedBytes
	}
	if o.SpilledBytes > s.SpilledBytes {
		s.SpilledBytes = o.SpilledBytes
	}
	if o.SpillRuns > s.SpillRuns {
		s.SpillRuns = o.SpillRuns
	}
	switch {
	case s.Backend == "":
		s.Backend = o.Backend
	case o.Backend != "" && o.Backend != s.Backend:
		s.Backend = "mixed"
	}
	s.Mallocs += o.Mallocs
	s.AllocBytes += o.AllocBytes
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.Recycled += o.Recycled
	s.LiveStates += o.LiveStates
	s.RedStates += o.RedStates
	if o.CycleLen > s.CycleLen {
		s.CycleLen = o.CycleLen
	}
}

// String renders the profile on one line, e.g. for -stats outputs.
func (s Stats) String() string {
	out := fmt.Sprintf("states=%d transitions=%d peak-frontier=%d trace-nodes=%d retained~%s",
		s.States, s.Transitions, s.PeakFrontier, s.TraceNodes, humanBytes(s.BytesRetained))
	if s.Backend != "" {
		out += fmt.Sprintf(" visited=%s:%s", s.Backend, humanBytes(s.VisitedBytes))
	}
	if s.SpilledBytes > 0 {
		out += fmt.Sprintf(" spilled=%s/%d-runs", humanBytes(s.SpilledBytes), s.SpillRuns)
	}
	if s.Mallocs > 0 {
		out += fmt.Sprintf(" allocs=%d (%s)", s.Mallocs, humanBytes(int64(s.AllocBytes)))
	}
	if s.PoolHits > 0 || s.PoolMisses > 0 || s.Recycled > 0 {
		out += fmt.Sprintf(" pool=%d-hit/%d-miss recycled=%d", s.PoolHits, s.PoolMisses, s.Recycled)
	}
	if s.LiveStates > 0 || s.RedStates > 0 {
		out += fmt.Sprintf(" ndfs=%d+%dred", s.LiveStates, s.RedStates)
	}
	if s.CycleLen > 0 {
		out += fmt.Sprintf(" cycle=%d", s.CycleLen)
	}
	return out
}

// humanBytes renders a byte count with a binary unit.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
