package mc_test

// Telemetry equivalence tests: the obs counters are a second, live view of
// the exploration statistics, and after a run the two views must agree
// exactly (the drivers flush every staged worker at run end). The CI
// workflow's race-enabled test step exercises the parallel arms.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// TestZooObsSnapshotMatchesStats pins the zoo-wide counter identity at
// one and eight workers: after any run, the collector's final snapshot must equal
// the run's statespace.Stats counter for counter — states, transitions,
// duplicates, aborts, recycles — and, because every offered state is
// either admitted or a duplicate under an exact uncapped backend,
// states + duplicates must equal transitions + initial states.
func TestZooObsSnapshotMatchesStats(t *testing.T) {
	rows := []mc.Options{{Symmetry: true, Workers: 1, Obs: obs.New()}, {Symmetry: true, Workers: 8, Obs: obs.New()}}
	zooDiff(t, rows, func(t *testing.T, sys ts.System, opt mc.Options, res *mc.Result) {
		s, tag := opt.Obs.Snapshot(), fmt.Sprintf("workers=%d", opt.Workers)
		counts := map[string][2]uint64{
			"states":      {s.Counters[obs.CStates], uint64(res.Space.States)},
			"transitions": {s.Counters[obs.CTransitions], uint64(res.Stats.FiredTransitions)},
			"aborts":      {s.Counters[obs.CAborts], uint64(res.Stats.WildcardAborts)},
			"recycled":    {s.Counters[obs.CRecycled], res.Space.Recycled},
			"depth gauge": {s.Gauges[obs.GDepth], uint64(res.Stats.MaxDepth)},
		}
		if res.Verdict != mc.Failure {
			// A completed exploration offers every initial state and every
			// fired successor to the visited set exactly once. (A failure
			// stops mid-expansion, with the frontier's successors never
			// offered.)
			counts["states+duplicates"] = [2]uint64{s.Counters[obs.CStates] + s.Counters[obs.CDuplicates],
				s.Counters[obs.CTransitions] + uint64(len(sys.Initial()))}
		}
		sameCounts(t, tag, counts)
		if s.Gauges[obs.GVisitedBytes] == 0 {
			t.Errorf("%s: visited_bytes gauge is zero", tag)
		}
	})
}

// sameCounts fails the test for every named pair of counts that differ: the
// collector's, then the run's.
func sameCounts(t *testing.T, tag string, counts map[string][2]uint64) {
	t.Helper()
	for name, c := range counts {
		if c[0] != c[1] {
			t.Errorf("%s: %s %d in the collector, %d in the result", tag, name, c[0], c[1])
		}
	}
}

// TestZooObsLivenessCounters pins the NDFS arm of the identity: the blue
// and red product admissions streamed during the liveness phase must equal
// the LiveStates/RedStates totals the phase reports in Stats, and the
// recycle and wildcard-abort counters — which both passes feed — must equal
// Space.Recycled and Stats.WildcardAborts with the phase's share included.
func TestZooObsLivenessCounters(t *testing.T) {
	zooLiveness(t, func(t *testing.T, name string) {
		_, opt, res := zooRun(t, name, mc.Options{Liveness: true, Symmetry: true, Obs: obs.New()})
		s := opt.Obs.Snapshot()
		sameCounts(t, name, map[string][2]uint64{
			"blue":     {s.Counters[obs.CBlue], uint64(res.Space.LiveStates)},
			"red":      {s.Counters[obs.CRed], uint64(res.Space.RedStates)},
			"aborts":   {s.Counters[obs.CAborts], uint64(res.Stats.WildcardAborts)},
			"recycled": {s.Counters[obs.CRecycled], res.Space.Recycled},
		})
	})
}

// TestObsTimelineLevelMarks pins the -report timeline guarantee: on
// msi-complete-4 (depth 37) the level-boundary marks alone must leave well
// over five snapshots, with monotone counters, even when no sampler runs.
// Every width publishes through the one boundary helper, so the marks
// themselves must agree across worker counts: same number of them, and at
// each the same depth and frontier gauges and — a BFS level being the same
// set of states in whatever order it was expanded — the same state and
// transition counters. (The sequential driver used to publish its frontier
// gauge one short, after popping the new level's first entry.)
func TestObsTimelineLevelMarks(t *testing.T) {
	type mark struct{ depth, frontier, states, transitions uint64 }
	var base []mark
	for _, workers := range []int{1, 4, 8} {
		sys, err := zoo.Get("msi-complete-4", zoo.Params{})
		if err != nil {
			t.Fatal(err)
		}
		col := obs.New()
		res, err := mc.Check(sys, mc.Options{Symmetry: true, Workers: workers, Obs: col})
		if err != nil {
			t.Fatal(err)
		}
		tl := col.Timeline()
		if len(tl) < 5 {
			t.Fatalf("workers=%d: %d timeline entries, want >= 5", workers, len(tl))
		}
		r := obs.NewReport("mc-test", "msi-complete-4")
		r.Verdict = res.Verdict.String()
		r.Space = res.Space
		r.Finish(col)
		if err := r.Validate(); err != nil {
			t.Errorf("workers=%d: report validation: %v", workers, err)
		}
		marks := make([]mark, len(tl))
		for i, s := range tl {
			marks[i] = mark{s.Gauges[obs.GDepth], s.Gauges[obs.GFrontier], s.Counters[obs.CStates], s.Counters[obs.CTransitions]}
		}
		// One mark per boundary between the 38 levels, plus the final one.
		if want := res.Stats.MaxDepth + 1; len(marks) != want {
			t.Errorf("workers=%d: %d marks, want %d", workers, len(marks), want)
		}
		if last := marks[len(marks)-1]; last.frontier != 0 || last.states != uint64(res.Stats.VisitedStates) {
			t.Errorf("workers=%d: final mark %+v, want frontier 0 and %d states", workers, last, res.Stats.VisitedStates)
		}
		if base == nil {
			base = marks
			continue
		}
		if len(marks) != len(base) {
			t.Fatalf("workers=%d: %d marks, one worker left %d", workers, len(marks), len(base))
		}
		for i := range marks {
			if marks[i] != base[i] {
				t.Errorf("workers=%d: mark %d = %+v, one worker published %+v", workers, i, marks[i], base[i])
			}
		}
	}
}

// BenchmarkExploreTelemetryOff/On price the telemetry stack on the
// msi-complete-4 exploration (the E17 ablation): Off is the plain check,
// On runs the full -progress stack — collector, 100 ms sampler, progress
// renderer. The two must
// stay within a few percent of each other; EXPERIMENTS.md E17 quotes
// the measured gap.
func BenchmarkExploreTelemetryOff(b *testing.B) {
	benchExplore(b, false)
}

func BenchmarkExploreTelemetryOn(b *testing.B) {
	benchExplore(b, true)
}

func benchExplore(b *testing.B, telemetry bool) {
	sys, err := zoo.Get("msi-complete-4", zoo.Params{})
	if err != nil {
		b.Fatal(err)
	}
	opt := mc.Options{Symmetry: true}
	if telemetry {
		col := obs.New()
		prog := obs.NewProgress(io.Discard)
		sampler := col.StartSampler(obs.DefaultSampleInterval, prog.Sample)
		defer sampler.Stop()
		opt.Obs = col
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != mc.Success {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// TestTelemetryAllocRegression re-pins TestLifecycleAllocRegression's
// ≤1.5 mallocs/state bar with the full telemetry stack live — collector, 2 ms sampler, non-TTY
// progress renderer — on the same msi-complete configuration. The staged
// counters and batched flushes must keep the whole -progress path out of
// the per-state allocation budget. Under -race the run still happens, with
// the sampler racing the workers; only the ceiling is skipped.
func TestTelemetryAllocRegression(t *testing.T) {
	sys, err := zoo.Get("msi-complete", zoo.Params{Caches: 3})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	prog := obs.NewProgress(io.Discard)
	sampler := col.StartSampler(2*time.Millisecond, prog.Sample)
	res, mallocs := checkMallocs(t, sys, mc.Options{Symmetry: true, Obs: col})
	sampler.Stop()
	if res.Verdict != mc.Success {
		t.Fatalf("verdict %v", res.Verdict)
	}
	perState := float64(mallocs) / float64(res.Stats.VisitedStates)
	t.Logf("telemetry on: %.1f mallocs/state over %d states", perState, res.Stats.VisitedStates)
	if perState > 1.5 && !raceEnabled {
		t.Errorf("mallocs/state = %.1f with telemetry enabled, want <= 1.5", perState)
	}
}
