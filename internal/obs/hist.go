package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Phase enumerates the timed exploration phases — the same decomposition
// the mc package's pprof labels use, plus the level-boundary merge that
// pprof attributes to the run loop.
type Phase int

const (
	// PhaseEnumerate is transition enumeration (ts.System.AppendRules).
	PhaseEnumerate Phase = iota
	// PhaseFire is successor construction (ts.System.FireRule).
	PhaseFire
	// PhaseKey is canonical encoding plus fingerprinting.
	PhaseKey
	// PhaseInsert is visited-set admission (TryInsert).
	PhaseInsert
	// PhaseLevelMerge is level-boundary backend housekeeping — the spill
	// backend's run-file merge, a near-no-op elsewhere.
	PhaseLevelMerge

	// NumPhases is the number of phases; not itself a phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"enumerate", "fire", "key", "insert", "level_merge",
}

// String returns the phase's wire name.
func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// HistBuckets is the bucket count of the log2 duration histograms: bucket
// i holds observations with bits.Len64(ns) == i, i.e. durations in
// [2^(i-1), 2^i) ns (bucket 0 is exactly 0 ns). 40 buckets reach ~9
// minutes, far past any single batched phase observation.
const HistBuckets = 40

// Histogram is a coarse log2-bucketed duration histogram with lock-free
// atomic buckets. Coarse is the point: power-of-two resolution is plenty
// to see where time goes, and Observe is two atomic adds plus one
// bits.Len64 — cheap enough for the batched (per-sampled-expansion,
// per-level) call sites, though still far too hot for per-state use.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one duration (negative durations clamp to 0).
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	b := bits.Len64(ns)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// HistogramSnapshot is an immutable reading of a Histogram, JSON-shaped
// for run reports.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	SumNS   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"` // indexed by log2 bucket; zero-trimmed tail
}

// Snapshot reads the histogram. The bucket slice is trimmed to the last
// non-zero bucket; counts are monotone but, like counter snapshots, the
// (count, sum, buckets) triple is only eventually consistent while
// writers are active.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.count.Load(), SumNS: h.sumNS.Load()}
	var buf [HistBuckets]uint64
	top := 0
	for i := range buf {
		buf[i] = h.buckets[i].Load()
		if buf[i] != 0 {
			top = i + 1
		}
	}
	hs.Buckets = append([]uint64(nil), buf[:top]...)
	return hs
}

// MeanNS is the mean observation in nanoseconds (0 when empty).
func (hs HistogramSnapshot) MeanNS() float64 {
	if hs.Count == 0 {
		return 0
	}
	return float64(hs.SumNS) / float64(hs.Count)
}

// Stopwatch accumulates one sampled expansion's per-phase durations and
// files them into the collector's histograms on Done. The zero value and
// nil receivers are inert, so callers thread a possibly-nil *Stopwatch
// straight through the hot path:
//
//	sw := worker.BeginExpansion() // nil on unsampled expansions
//	sw.Mark()
//	... enumerate ...
//	sw.Lap(PhaseEnumerate)
//	...
//	sw.Done()
type Stopwatch struct {
	c   *Collector
	t0  time.Time
	acc [NumPhases]time.Duration
}

// Mark starts (or restarts) the phase clock.
func (s *Stopwatch) Mark() {
	if s != nil {
		s.t0 = time.Now()
	}
}

// Lap attributes the time since the last Mark/Lap to phase p and
// restarts the clock.
func (s *Stopwatch) Lap(p Phase) {
	if s == nil {
		return
	}
	now := time.Now()
	s.acc[p] += now.Sub(s.t0)
	s.t0 = now
}

// Done files the accumulated per-phase durations into the collector's
// histograms — one Observe per phase that saw time, so each histogram
// observation is a whole expansion's batch, not a single state.
func (s *Stopwatch) Done() {
	if s == nil || s.c == nil {
		return
	}
	for p, d := range s.acc {
		if d > 0 {
			s.c.phases[p].Observe(d)
		}
	}
}
