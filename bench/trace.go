package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// class is a span class: one per call site into a layer. The names are the
// layers' module names, so a per-layer metric reads "<module>.<call>.<stat>".
type class uint8

const (
	clsEnumerate  class = iota // TransitionAppender.AppendTransitions
	clsFire                    // Transition.Fire
	clsRecycle                 // Recycler.Recycle
	clsInvariants              // Invariant.Holds and ReachGoal.Holds
	clsCanon                   // Canonicalizer.Fingerprint
	clsKey                     // KeyAppender.AppendKey + statespace.OfBytes
	clsQueue                   // Queue.PushBack / PopFront
	clsInsert                  // Store.TryInsert
	clsLevelMerge              // LevelMarker.EndLevel
	clsSelect                  // core: previous check's end -> next check's start
	clsDispatch                // core: one embedded mc.Check
	clsReverify                // core: last check's end -> Synthesize returns
	numClasses
)

var classNames = [numClasses]string{
	"msi.enumerate", "msi.fire", "msi.recycle", "msi.invariants",
	"symmetry.canon", "statespace.key", "statespace.queue",
	"visited.insert", "visited.level_merge",
	"core.select", "core.dispatch", "core.reverify",
}

// walkClasses are the classes the layer walk records; their corrected busy
// times are what mc.residual_s subtracts from the untraced wall time.
var walkClasses = []class{
	clsEnumerate, clsFire, clsRecycle, clsInvariants, clsCanon, clsKey,
	clsQueue, clsInsert, clsLevelMerge,
}

// span is one recorded call: its class, the expansion or dispatch that
// caused it (spans of one expansion share Parent), and its interval on the
// tracer's clock.
type span struct {
	Class  class
	Parent uint32
	Start  int64
	End    int64
}

// maxSpans bounds the raw spans kept for -trace-out. A 1.9M-state walk
// makes ~46M spans; the per-class aggregates see all of them, the raw
// buffer keeps the first maxSpans (every span of a synthesis run fits).
const maxSpans = 1 << 18

// tracer keeps spans in memory: exact per-class aggregates plus a bounded
// raw buffer (none for a tracer built without newTracer: the aggregates are
// all the timer calibration and the orbit pass need). It is not safe for
// concurrent use; the synthesis tracer serializes access itself.
type tracer struct {
	base  time.Time
	calls [numClasses]uint64
	busy  [numClasses]int64 // measured ns, timer cost included
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, maxSpans)}
}

// now reads the tracer's monotonic clock in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// end closes a span of class c opened at start.
func (t *tracer) end(c class, parent uint32, start int64) {
	t.record(c, parent, start, t.now())
}

func (t *tracer) record(c class, parent uint32, start, end int64) {
	t.calls[c]++
	t.busy[c] += end - start
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{Class: c, Parent: parent, Start: start, End: end})
	}
}

// timerNS calibrates what an empty span measures: the clock-read latency
// every recorded span carries. Subtracting calls x timerNS from a class's
// measured busy time gives its timer-corrected busy time.
func timerNS() float64 {
	t := &tracer{base: time.Now()}
	const n = 1 << 20
	for i := 0; i < n; i++ {
		t.end(clsQueue, 0, t.now())
	}
	return float64(t.busy[clsQueue]) / n
}

// layerStat is one class's aggregate as the child reports it.
type layerStat struct {
	Calls uint64  `json:"calls"`
	BusyS float64 `json:"busy_s"` // timer-corrected
}

// layers renders the per-class aggregates, correcting each class's busy
// time for the calibrated timer cost.
func (t *tracer) layers(timer float64) map[string]layerStat {
	out := make(map[string]layerStat, numClasses)
	for c := class(0); c < numClasses; c++ {
		if t.calls[c] == 0 {
			continue
		}
		busy := float64(t.busy[c]) - float64(t.calls[c])*timer
		if busy < 0 {
			busy = 0
		}
		out[classNames[c]] = layerStat{Calls: t.calls[c], BusyS: busy / 1e9}
	}
	return out
}

// writeSpans writes the raw span buffer as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	enc := json.NewEncoder(buf)
	for _, s := range t.spans {
		rec := struct {
			Name    string `json:"name"`
			Parent  uint32 `json:"parent"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{classNames[s.Class], s.Parent, s.Start, s.End}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := buf.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
