package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"verc3/internal/statespace"
)

// TestSnapshotMonotonicUnderRace is the tear-freedom pin: worker
// goroutines increment and flush concurrently with a reader snapshotting
// in a tight loop, and every counter of every successive snapshot must be
// non-decreasing. Run under -race this also proves the staging/flush
// protocol is free of data races (plain staged writes are single-owner;
// publication is atomic).
func TestSnapshotMonotonicUnderRace(t *testing.T) {
	c := New()
	const writers = 8
	const perWriter = 50000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := c.NewWorker()
			for j := 0; j < perWriter; j++ {
				sw := w.BeginExpansion()
				sw.Mark()
				w.Inc(CStates)
				sw.Lap(PhaseEnumerate)
				w.Inc(CTransitions)
				w.Inc(CTransitions)
				if j%3 == 0 {
					w.Inc(CDuplicates)
				}
				sw.Done()
			}
			w.Flush()
		}()
	}
	readerDone := make(chan error, 1)
	go func() {
		prev := c.Snapshot()
		for {
			cur := c.Snapshot()
			for ct := Counter(0); ct < NumCounters; ct++ {
				if cur.Counters[ct] < prev.Counters[ct] {
					t.Errorf("counter %s decreased: %d -> %d", ct, prev.Counters[ct], cur.Counters[ct])
					readerDone <- nil
					return
				}
			}
			prev = cur
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	s := c.Snapshot()
	if got, want := s.Counters[CStates], uint64(writers*perWriter); got != want {
		t.Errorf("final states = %d, want %d", got, want)
	}
	if got, want := s.Counters[CTransitions], uint64(2*writers*perWriter); got != want {
		t.Errorf("final transitions = %d, want %d", got, want)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	w := c.NewWorker()
	if w != nil {
		t.Fatalf("nil collector returned non-nil worker")
	}
	w.Inc(CStates)
	w.Add(CStates, 3)
	w.Flush()
	w.Tick()
	sw := w.BeginExpansion()
	sw.Mark()
	sw.Lap(PhaseFire)
	sw.Done()
	c.Count(CStates, 1)
	c.SetGauge(GDepth, 1)
	c.ObservePhase(PhaseKey, time.Millisecond)
	c.MarkTimeline()
	c.Event(Event{Kind: EventText, Text: "x"})
	if s := c.Snapshot(); s.Counters[CStates] != 0 {
		t.Fatalf("nil collector snapshot non-zero")
	}
	if tl := c.Timeline(); tl != nil {
		t.Fatalf("nil collector timeline non-nil")
	}
	c.StartSampler(time.Millisecond, nil).Stop()
	var p *Progress
	p.Sample(Snapshot{}, Snapshot{})
	p.Logf("x")
	p.Clear()
}

func TestWorkerFlushCadence(t *testing.T) {
	c := New()
	w := c.NewWorker()
	for i := 0; i < flushEvery-1; i++ {
		w.BeginExpansion()
		w.Inc(CStates)
	}
	// One short of the cadence: nothing published yet beyond the flush at
	// op flushEvery (not reached), so the snapshot lags the staged count.
	if got := c.Snapshot().Counters[CStates]; got != 0 {
		t.Fatalf("pre-flush snapshot = %d, want 0 (staged)", got)
	}
	w.Flush()
	if got := c.Snapshot().Counters[CStates]; got != uint64(flushEvery-1) {
		t.Fatalf("post-flush snapshot = %d, want %d", got, flushEvery-1)
	}
}

func TestTimelineDecimation(t *testing.T) {
	c := New()
	w := c.NewWorker()
	for i := 0; i < 3*maxTimeline; i++ {
		w.Inc(CStates)
		w.Flush()
		c.MarkTimeline()
	}
	tl := c.Timeline()
	if len(tl) == 0 || len(tl) > maxTimeline {
		t.Fatalf("timeline length %d, want (0, %d]", len(tl), maxTimeline)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Counters[CStates] < tl[i-1].Counters[CStates] {
			t.Fatalf("timeline not monotone at %d", i)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)                     // bucket 1
	h.Observe(900 * time.Nanosecond) // 900ns: bits.Len64(900)=10
	h.Observe(time.Millisecond)
	hs := h.Snapshot()
	if hs.Count != 4 {
		t.Fatalf("count = %d, want 4", hs.Count)
	}
	sum := uint64(0)
	for _, n := range hs.Buckets {
		sum += n
	}
	if sum != hs.Count {
		t.Fatalf("bucket sum %d != count %d", sum, hs.Count)
	}
	if hs.Buckets[0] != 1 || hs.Buckets[1] != 1 || hs.Buckets[10] != 1 {
		t.Fatalf("unexpected bucket layout: %v", hs.Buckets)
	}
	if hs.SumNS != 0+1+900+1000000 {
		t.Fatalf("sum_ns = %d", hs.SumNS)
	}
	// Far-out durations clamp into the last bucket instead of indexing
	// out of range.
	h.Observe(200 * time.Hour)
	if got := h.Snapshot().Buckets[HistBuckets-1]; got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	var s Snapshot
	s.ElapsedNS = 12345
	s.Counters[CStates] = 7
	s.Counters[CRed] = 2
	s.Gauges[GDepth] = 9
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"states":7`) || !strings.Contains(string(b), `"ndfs_red":2`) {
		t.Fatalf("unexpected JSON: %s", b)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip mismatch: %+v != %+v", back, s)
	}
	// Unknown names are ignored, not errors (forward compatibility).
	var fwd Snapshot
	if err := json.Unmarshal([]byte(`{"elapsed_ns":1,"counters":{"from_the_future":3}}`), &fwd); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerFillsTimeline(t *testing.T) {
	c := New()
	var mu sync.Mutex
	samples := 0
	s := c.StartSampler(time.Millisecond, func(prev, cur Snapshot) {
		mu.Lock()
		samples++
		mu.Unlock()
		if cur.ElapsedNS < prev.ElapsedNS {
			t.Errorf("sampler time went backwards")
		}
	})
	time.Sleep(30 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	mu.Lock()
	n := samples
	mu.Unlock()
	if n == 0 {
		t.Fatalf("sampler never fired")
	}
	if len(c.Timeline()) == 0 {
		t.Fatalf("sampler did not mark the timeline")
	}
}

func TestProgressNonTTYPeriodicLines(t *testing.T) {
	var buf bytes.Buffer
	p := newProgress(&buf, false)
	var s Snapshot
	for i := 0; i < 2*nonTTYEvery; i++ {
		s.ElapsedNS += int64(100 * time.Millisecond)
		s.Counters[CStates] += 100
		prev := s
		p.Sample(prev, s)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Fatalf("non-TTY progress printed %d lines over %d samples, want 2", lines, 2*nonTTYEvery)
	}
	if strings.Contains(buf.String(), "\r") {
		t.Fatalf("non-TTY progress used carriage returns")
	}
}

func TestProgressTTYRepaintAndLogf(t *testing.T) {
	var buf bytes.Buffer
	p := newProgress(&buf, true)
	var s Snapshot
	s.Counters[CStates] = 10
	s.ElapsedNS = int64(time.Second)
	p.Sample(Snapshot{}, s)
	p.Logf("hello %d", 42)
	p.Clear()
	out := buf.String()
	if !strings.HasPrefix(out, "\r\x1b[K") {
		t.Fatalf("TTY progress did not repaint in place: %q", out)
	}
	if !strings.Contains(out, "hello 42\n") {
		t.Fatalf("Logf line missing: %q", out)
	}
	// The log line must come after an erase, never mid-status-line.
	if i := strings.Index(out, "hello 42"); !strings.HasSuffix(out[:i], "\r\x1b[K") {
		t.Fatalf("Logf did not erase the status line first: %q", out)
	}
}

func TestRenderLineSections(t *testing.T) {
	var s Snapshot
	s.ElapsedNS = int64(2 * time.Second)
	s.Counters[CStates] = 5440
	s.Gauges[GDepth] = 37
	line := renderLine(s, 2720)
	for _, want := range []string{"states 5440", "depth 37"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "ndfs") || strings.Contains(line, "| round") {
		t.Errorf("idle sections rendered: %q", line)
	}
	s.Gauges[GMaxStates] = 10880
	s.Counters[CBlue] = 3
	s.Counters[CEvaluated] = 12
	s.Gauges[GHoles] = 4
	line = renderLine(s, 2720)
	for _, want := range []string{"cap 50%", "ndfs 3+0red", "eval 12", "holes 4"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestReportWriteReadValidate(t *testing.T) {
	c := New()
	w := c.NewWorker()
	for i := 0; i < 5; i++ {
		w.Add(CStates, 10)
		w.Flush()
		c.MarkTimeline()
	}
	c.ObservePhase(PhaseInsert, time.Microsecond)
	c.Event(Event{Kind: EventRound, Round: 1, Text: "round 1"})

	r := NewReport("verc3-test", "msi-complete")
	r.Verdict = "success"
	r.Space = statespace.Stats{States: 50, Transitions: 200}
	r.Options = map[string]string{"symmetry": "true"}
	r.Finish(c)

	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "verc3-test" || back.Verdict != "success" || back.Space.States != 50 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if len(back.Timeline) != 5 {
		t.Fatalf("timeline length %d, want 5", len(back.Timeline))
	}
	if back.Final.Counters[CStates] != 50 {
		t.Fatalf("final states = %d, want 50", back.Final.Counters[CStates])
	}
	if len(back.Events) != 1 || back.Events[0].Kind != EventRound {
		t.Fatalf("events = %+v", back.Events)
	}

	// Corrupt variants must be rejected.
	bad := *r
	for _, v := range []int{ReportVersion + 1, 1, 2} { // a future schema, and the retired v1 and v2
		bad.Version = v
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("version %d: err = %v, want a rejection naming the version", v, err)
		}
	}
	bad = *r
	bad.Verdict = ""
	if err := bad.Validate(); err == nil {
		t.Error("missing verdict accepted")
	}
	bad = *r
	bad.Timeline = append([]Snapshot(nil), r.Timeline...)
	bad.Timeline[2].Counters[CStates] = 0 // breaks monotonicity
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone timeline accepted")
	}
	bad = *r
	bad.Phases = map[string]HistogramSnapshot{"no-such-phase": {}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown phase accepted")
	}
	bad = *r
	bad.Phases = map[string]HistogramSnapshot{"insert": {Count: 3, Buckets: []uint64{1}}}
	if err := bad.Validate(); err == nil {
		t.Error("inconsistent histogram accepted")
	}
}

func TestEventLogCap(t *testing.T) {
	c := New()
	for i := 0; i < maxEvents+10; i++ {
		c.Event(Event{Kind: EventText, Text: "x"})
	}
	ev, dropped := c.Events()
	if len(ev) != maxEvents {
		t.Fatalf("retained %d events, want %d", len(ev), maxEvents)
	}
	if dropped != 10 {
		t.Fatalf("dropped = %d, want 10", dropped)
	}
}
