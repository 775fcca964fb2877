package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// Child kinds: every repetition is a cold process of the bench binary
// itself, and each kind of run is a process of its own so that tracing,
// telemetry and the end-to-end numbers never share one.
const (
	kindRun   = "run"   // untraced: only mc.Check / core.Synthesize
	kindTrace = "trace" // layer walk (verify-*) or traced Synthesize (synth-*)
	kindObs   = "obs"   // one mc.Check with Options.Obs set (verify-* only)
)

// setupReps is how many times a child sets up; setup_s is their median.
// Only the first set-up precedes the run, so the timed region starts in a
// process that has done nothing else; the rest follow it, when every other
// number is already taken. One set-up is ~100 us, too short to time once,
// and the first few dozen in a process run up to twice as slow as the rest
// (as do those that overlap a GC cycle), so the count is high enough for
// the median to sit on the warm plateau.
const setupReps = 201

// sample is what one child reports. Err is a failed run: an error from the
// system under test or a missed expectation.
type sample struct {
	Err string `json:"err,omitempty"`

	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"` // user+sys over the timed region
	PeakRSSKB  int64   `json:"peak_rss_kb"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	BusyCPUS   float64 `json:"busy_cpu_s"` // non-idle CPU the runtime accounted
	GCCycles   uint64  `json:"gc_cycles"`

	States       int    `json:"states,omitempty"`
	Transitions  int    `json:"transitions,omitempty"`
	Depth        int    `json:"depth,omitempty"`
	PoolHits     uint64 `json:"pool_hits,omitempty"`
	PoolMisses   uint64 `json:"pool_misses,omitempty"`
	VisitedBytes int64  `json:"visited_bytes,omitempty"`
	SpilledBytes int64  `json:"spilled_bytes,omitempty"`
	SpillRuns    int    `json:"spill_runs,omitempty"`

	Evaluated   int64  `json:"evaluated,omitempty"`
	Skipped     int64  `json:"skipped,omitempty"`
	Patterns    int    `json:"patterns,omitempty"`
	Rounds      int    `json:"rounds,omitempty"`
	TotalStates int64  `json:"total_states,omitempty"`
	Solutions   string `json:"solutions,omitempty"` // canonical rendering of the solution set

	// Traced runs.
	Layers       map[string]layerStat `json:"layers,omitempty"`
	TimerNS      float64              `json:"timer_ns,omitempty"`
	CheckFixedUS float64              `json:"check_fixed_us,omitempty"`
	OrbitSum     int                  `json:"orbit_sum,omitempty"`
	QueuePeak    int                  `json:"queue_peak,omitempty"`
	KeyBytes     uint64               `json:"key_bytes,omitempty"`
	IORetries    int                  `json:"io_retries,omitempty"`
	DispatchP50  float64              `json:"dispatch_us_p50,omitempty"`
	DispatchP99  float64              `json:"dispatch_us_p99,omitempty"`
	SelectP99    float64              `json:"select_us_p99,omitempty"`

	// Obs runs: sampled phase seconds scaled by the sampling rate.
	ObsPhaseS map[string]float64 `json:"obs_phase_s,omitempty"`
}

// childMain runs one child and prints its sample as one JSON line. The
// exit code is 0 whenever a sample was printed; a failed run travels in
// sample.Err so the parent can count it.
func childMain(kind, specJSON string, out io.Writer) int {
	var sp spec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		fmt.Fprintln(out, `{"err":"bad -spec"}`)
		return 2
	}
	s := runChild(kind, sp)
	if err := json.NewEncoder(out).Encode(s); err != nil {
		return 2
	}
	return 0
}

func runChild(kind string, sp spec) sample {
	var s sample
	w := sp.Workload
	setups := make([]float64, 0, setupReps)
	setUp := func() (*runEnv, error) {
		t0 := time.Now()
		env, err := w.setUp(sp.TmpRoot)
		setups = append(setups, time.Since(t0).Seconds())
		return env, err
	}
	env, err := setUp()
	if err != nil {
		s.Err = err.Error()
		return s
	}
	switch {
	case kind == kindRun && w.Synth:
		err = runSynth(&s, w, env, sp.Expect, nil)
	case kind == kindRun:
		err = runCheck(&s, env, sp.Expect)
	case kind == kindObs && !w.Synth:
		err = runObs(&s, env, sp.Expect)
	case kind == kindTrace && w.Synth:
		err = traceSynth(&s, w, env, sp)
	case kind == kindTrace:
		err = traceWalk(&s, w, env, sp)
	default:
		err = fmt.Errorf("no %q child for workload %s", kind, w.Name)
	}
	env.close()
	// A finished run leaves a heap of garbage and often a GC cycle in flight;
	// set-ups that overlap one run twice as slow. Collect it first.
	runtime.GC()
	for err == nil && len(setups) < setupReps {
		if env, err = setUp(); err == nil {
			env.close()
		}
	}
	if err != nil {
		s.Err = err.Error()
	}
	s.SetupS = median(setups)
	return s
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() []metrics.Sample {
	rt := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		rt[i].Name = n
	}
	metrics.Read(rt)
	return rt
}

// timed runs f as a child's timed region and brackets it with the
// process-wide counters the end-to-end metrics need. The counter reads sit
// outside the clock reads; ReadMemStats stops the world, so it runs exactly
// twice per child and never inside the system under test (Options.MemStats
// stays off).
func timed(s *sample, f func() error) error {
	rt0 := readRuntime()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, _, err := readRusage()
	if err != nil {
		return err
	}
	start := time.Now()
	ferr := f()
	s.WallS = time.Since(start).Seconds()
	cpu1, maxRSSKB, err := readRusage()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&mem1)
	rt1 := readRuntime()
	s.CPUS = cpu1 - cpu0
	s.PeakRSSKB = maxRSSKB
	s.AllocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	s.Mallocs = mem1.Mallocs - mem0.Mallocs
	s.GCCPUS = rt1[0].Value.Float64() - rt0[0].Value.Float64()
	s.BusyCPUS = (rt1[1].Value.Float64() - rt0[1].Value.Float64()) - (rt1[2].Value.Float64() - rt0[2].Value.Float64())
	s.GCCycles = rt1[3].Value.Uint64() - rt0[3].Value.Uint64()
	return ferr
}

// runCheck is the untraced verification: the timed region is the single
// mc.Check call.
func runCheck(s *sample, env *runEnv, want expectation) error {
	var res *mc.Result
	err := timed(s, func() (err error) {
		res, err = mc.Check(env.sys, env.mcOpt)
		return err
	})
	if err != nil {
		return err
	}
	s.fillCheck(res)
	return checkVerify(want, res.Verdict.String(), res.Stats.VisitedStates, res.Stats.FiredTransitions, res.Stats.MaxDepth)
}

func (s *sample) fillCheck(res *mc.Result) {
	s.States, s.Transitions, s.Depth = res.Stats.VisitedStates, res.Stats.FiredTransitions, res.Stats.MaxDepth
	s.PoolHits, s.PoolMisses = res.Space.PoolHits, res.Space.PoolMisses
	s.VisitedBytes, s.SpilledBytes, s.SpillRuns = res.Space.VisitedBytes, res.Space.SpilledBytes, res.Space.SpillRuns
}

func checkVerify(want expectation, verdict string, states, transitions, depth int) error {
	var miss []string
	if want.Verdict != "" && verdict != want.Verdict {
		miss = append(miss, fmt.Sprintf("verdict %s, want %s", verdict, want.Verdict))
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{{"states", states, want.States}, {"transitions", transitions, want.Transitions}, {"depth", depth, want.Depth}} {
		if c.want != 0 && c.got != c.want {
			miss = append(miss, fmt.Sprintf("%s %d, want %d", c.name, c.got, c.want))
		}
	}
	if len(miss) > 0 {
		return fmt.Errorf("expectation missed: %s", strings.Join(miss, "; "))
	}
	return nil
}

// runSynth is the synthesis run: the timed region is the single
// core.Synthesize call, reverify included. st is nil for the untraced run;
// the traced run passes its tracer, which wraps the system and listens on
// OnEvaluate.
func runSynth(s *sample, w workload, env *runEnv, want expectation, st *synthTracer) error {
	var sys ts.System = env.sys
	cfg := env.cfg
	if st != nil {
		sys = &tracedSystem{System: env.sys, st: st}
		cfg.OnEvaluate = st.checkEnd
	}
	var res *core.Result
	err := timed(s, func() (err error) {
		if st != nil {
			st.begin()
		}
		res, err = core.Synthesize(sys, cfg)
		if st != nil {
			st.finish()
		}
		return err
	})
	if err != nil {
		return err
	}
	stats := res.Stats
	s.Evaluated, s.Skipped, s.Patterns, s.Rounds, s.TotalStates = stats.Evaluated, stats.Skipped, stats.Patterns, stats.Rounds, stats.TotalVisitedStates
	s.PoolHits, s.PoolMisses = stats.Space.PoolHits, stats.Space.PoolMisses

	got := make([]string, len(res.Solutions))
	for i := range res.Solutions {
		got[i] = renderAssignment(res.Assignment(i))
	}
	sort.Strings(got)
	s.Solutions = strings.Join(got, "\n")

	var miss []string
	if want.Holes != 0 && stats.Holes != want.Holes {
		miss = append(miss, fmt.Sprintf("holes %d, want %d", stats.Holes, want.Holes))
	}
	if want.Candidates != 0 && stats.CandidateSpace != want.Candidates {
		miss = append(miss, fmt.Sprintf("candidates %d, want %d", stats.CandidateSpace, want.Candidates))
	}
	if want.SolutionCount != 0 && len(got) != want.SolutionCount {
		miss = append(miss, fmt.Sprintf("%d solutions, want %d", len(got), want.SolutionCount))
	}
	if len(want.Solutions) > 0 {
		pinned := make([]string, len(want.Solutions))
		for i, sol := range want.Solutions {
			pinned[i] = renderAssignment(sol)
		}
		sort.Strings(pinned)
		if strings.Join(pinned, "\n") != s.Solutions {
			miss = append(miss, "solution set differs from the pinned one")
		}
	}
	// Every returned solution must verify on the plain skeleton too, on a
	// check the engine did not run.
	for i := range res.Solutions {
		vr, err := core.VerifySolution(env.sys, res, i, mc.Options{Symmetry: w.Symmetry})
		if err != nil {
			return err
		}
		if vr.Verdict != mc.Success {
			miss = append(miss, fmt.Sprintf("solution %d re-checks as %s", i, vr.Verdict))
		}
	}
	if len(miss) > 0 {
		return fmt.Errorf("expectation missed: %s", strings.Join(miss, "; "))
	}
	return nil
}

// renderAssignment renders a hole-name -> action map canonically.
func renderAssignment(a map[string]string) string {
	parts := make([]string, 0, len(a))
	for h, act := range a {
		parts = append(parts, h+"@"+act)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// runObs is the telemetry cross-check: one mc.Check with a collector
// attached. The phase histograms time one expansion in every few; scaling
// each phase's sum by states/sampled expansions estimates the phase's
// whole-run time (level_merge is timed at every boundary and not scaled).
func runObs(s *sample, env *runEnv, want expectation) error {
	col := obs.New()
	opt := env.mcOpt
	opt.Obs = col
	var res *mc.Result
	err := timed(s, func() (err error) {
		res, err = mc.Check(env.sys, opt)
		return err
	})
	if err != nil {
		return err
	}
	s.fillCheck(res)
	phases := col.Phases()
	rate := 1.0
	if n := phases[obs.PhaseEnumerate.String()].Count; n > 0 {
		rate = float64(res.Stats.VisitedStates) / float64(n)
	}
	s.ObsPhaseS = map[string]float64{}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		sec := float64(phases[p.String()].SumNS) / 1e9
		if p != obs.PhaseLevelMerge {
			sec *= rate
		}
		s.ObsPhaseS[p.String()] = sec
	}
	return checkVerify(want, res.Verdict.String(), res.Stats.VisitedStates, res.Stats.FiredTransitions, res.Stats.MaxDepth)
}

// traceWalk is the traced run of a verification workload.
func traceWalk(s *sample, w workload, env *runEnv, sp spec) error {
	s.TimerNS = timerNS()
	fixed, err := checkFixedUS()
	if err != nil {
		return err
	}
	s.CheckFixedUS = fixed

	t := newTracer()
	var res walkResult
	err = timed(s, func() (err error) {
		res, err = walk(w, env, t, nil)
		return err
	})
	if err != nil {
		return err
	}
	s.States, s.Transitions, s.Depth = res.States, res.Transitions, res.Depth
	s.VisitedBytes, s.SpilledBytes, s.SpillRuns = res.Store.Bytes, res.Store.SpilledBytes, res.Store.SpillRuns
	s.QueuePeak, s.KeyBytes, s.IORetries = res.QueuePeak, res.KeyBytes, res.IORetries
	s.Layers = t.layers(s.TimerNS)
	if sp.TraceOut != "" {
		if err := t.writeSpans(sp.TraceOut); err != nil {
			return err
		}
	}
	if err := checkVerify(sp.Expect, mc.Success.String(), res.States, res.Transitions, res.Depth); err != nil {
		return err
	}
	if !w.Symmetry {
		if n := t.calls[clsCanon]; n != 0 {
			return fmt.Errorf("symmetry off but %d canonicalizer calls", n)
		}
		return nil
	}
	// The orbit oracle: a second, untimed walk sums the orbit size of every
	// canonical state. Orbits partition the unreduced space, so the sum is
	// the unreduced state count without running the unreduced check.
	canon := symmetry.NewCanonicalizer(w.Caches)
	if _, err := walk(w, env, &tracer{base: time.Now()}, func(st ts.State) { s.OrbitSum += canon.Orbit(st) }); err != nil {
		return err
	}
	if sp.Expect.OrbitSum != 0 && s.OrbitSum != sp.Expect.OrbitSum {
		return fmt.Errorf("expectation missed: orbit sum %d, want %d", s.OrbitSum, sp.Expect.OrbitSum)
	}
	return nil
}

// traceSynth is the traced run of a synthesis workload.
func traceSynth(s *sample, w workload, env *runEnv, sp spec) error {
	s.TimerNS = timerNS()
	fixed, err := checkFixedUS()
	if err != nil {
		return err
	}
	s.CheckFixedUS = fixed

	t := newTracer()
	st := newSynthTracer(t, w.Workers > 1)
	if err := runSynth(s, w, env, sp.Expect, st); err != nil {
		return err
	}
	s.Layers = t.layers(s.TimerNS)
	s.DispatchP50, s.DispatchP99 = percentileUS(st.checks, 0.50), percentileUS(st.checks, 0.99)
	s.SelectP99 = percentileUS(st.selects, 0.99)
	if sp.TraceOut != "" {
		if err := t.writeSpans(sp.TraceOut); err != nil {
			return err
		}
	}
	if n := int64(t.calls[clsDispatch]); n != s.Evaluated {
		return fmt.Errorf("traced %d dispatches, engine evaluated %d", n, s.Evaluated)
	}
	if w.Workers == 1 {
		if cov := spanCoverage(s, w.Workers); cov < 0.98 {
			return fmt.Errorf("select+dispatch+reverify cover %.3f of the traced wall, want >= 0.98", cov)
		}
	}
	return nil
}

// spanCoverage is the share of a traced synthesis's worker-seconds its
// three span classes account for.
func spanCoverage(s *sample, workers int) float64 {
	var busy float64
	for _, c := range []class{clsSelect, clsDispatch, clsReverify} {
		busy += s.Layers[classNames[c]].BusyS
	}
	return busy / (s.WallS * float64(workers))
}

// checkFixedUS is the fixed cost of one embedded check: the median of
// 2,000 mc.Check calls on the 16-state peterson model, where set-up and
// tear-down are all there is. A synthesis pays it once per dispatch.
func checkFixedUS() (float64, error) {
	sys, err := zoo.Get("peterson", zoo.Params{})
	if err != nil {
		return 0, err
	}
	const n = 2000
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		res, err := mc.Check(sys, mc.Options{})
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err != nil {
			return 0, err
		}
		if res.Verdict != mc.Success {
			return 0, fmt.Errorf("peterson: verdict %s", res.Verdict)
		}
	}
	return median(us), nil
}
