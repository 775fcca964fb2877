package main

import "sort"

// metricDef declares one metric: its name, unit, direction and, for an
// end-to-end metric, the share of the parent's median by which it may get
// worse before a change counts as a regression. BENCHMARK.json carries the
// same declarations; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the checker sees. Every workload
// reports every one of them from its untraced runs, as the median over the
// repetitions.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.20},
	{"states_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_mb", "MB", "lower", 0.02},
	{"mallocs", "count", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, named after the modules. They
// come from one traced invocation per workload; a metric a workload does
// not exercise reads 0 there (symmetry.* with symmetry off, core.* on a
// verification, the walk's classes on a synthesis).
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(better string, unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("lower", "count", "msi.enumerate.calls", "msi.fire.calls", "msi.recycle.calls")
	add("lower", "s", "msi.enumerate.busy_s", "msi.fire.busy_s", "msi.recycle.busy_s", "msi.invariants.busy_s")
	add("lower", "ns", "msi.enumerate.ns_per_call", "msi.fire.ns_per_call")
	add("higher", "ratio", "msi.pool_hit_ratio")

	add("lower", "count", "symmetry.canon.calls")
	add("lower", "s", "symmetry.canon.busy_s")
	add("lower", "ns", "symmetry.canon.ns_per_call")
	add("higher", "count", "symmetry.orbit_sum")

	add("lower", "count", "statespace.key.calls", "statespace.queue.peak")
	add("lower", "s", "statespace.key.busy_s", "statespace.queue.busy_s")
	add("lower", "ns", "statespace.key.ns_per_call")
	add("lower", "B", "statespace.key.bytes_mean")

	add("lower", "count", "visited.insert.calls", "visited.level_merge.calls", "visited.spill_runs", "visited.io_retries")
	add("lower", "s", "visited.insert.busy_s", "visited.level_merge.busy_s")
	add("lower", "ns", "visited.insert.ns_per_call")
	add("higher", "ratio", "visited.insert.new_ratio")
	add("lower", "B", "visited.bytes_per_state")
	add("lower", "MB", "visited.spilled_mb")

	add("lower", "s", "mc.walk.wall_s", "mc.residual_s")
	add("lower", "ratio", "mc.residual_share")
	add("lower", "us", "mc.check_fixed_us")
	add("lower", "count", "mc.mallocs_per_state")
	add("lower", "B", "mc.alloc_bytes_per_state")
	add("higher", "ratio", "mc.par_speedup")
	add("lower", "ratio", "mc.par_cpu_ratio")

	add("lower", "count", "core.evaluated", "core.dispatch.count", "core.patterns", "core.rounds")
	add("higher", "count", "core.skipped")
	add("lower", "s", "core.dispatch.busy_s", "core.select.busy_s", "core.reverify.busy_s")
	add("lower", "us", "core.dispatch.us_p50", "core.dispatch.us_p99", "core.select.us_p99")
	add("higher", "ratio", "core.prune_ratio", "core.pattern_yield", "core.par_speedup", "core.span_coverage")
	add("lower", "count", "core.states_per_dispatch", "core.mallocs_per_dispatch")

	add("lower", "ratio", "runtime.gc_cpu_share")
	add("lower", "count", "runtime.gc_cycles")

	add("higher", "ratio", "obs.phase_coverage")
	add("lower", "ratio", "obs.overhead_ratio",
		"obs.enumerate_share", "obs.fire_share", "obs.key_share", "obs.insert_share", "obs.level_merge_share")

	add("lower", "ns", "trace.timer_ns")
	add("lower", "ratio", "trace.overhead_ratio")
	return defs
}()

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quartiles returns the first quartile, the median and the third quartile
// of vs by the exclusive method — the one Python's
// statistics.quantiles(vs, n=4) uses, which is how the driver computes a
// metric's spread. Fewer than two values give that value (or 0) thrice.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndOf derives one untraced run's end-to-end metrics; a workload
// reports the median of each over its repetitions. The work a workload
// completes is pinned (a verification's state count) or deterministic at
// one worker (the states all of a synthesis's checks visit), so
// states_per_s moves with wall_s alone on the former and with the checker's
// own speed on the latter.
func endToEndOf(s *sample) map[string]float64 {
	return map[string]float64{
		"wall_s":       s.WallS,
		"states_per_s": ratio(float64(s.States)+float64(s.TotalStates), s.WallS),
		"peak_rss_mb":  float64(s.PeakRSSKB) / 1024,
		"alloc_mb":     float64(s.AllocBytes) / (1 << 20),
		"mallocs":      float64(s.Mallocs),
		"setup_s":      s.SetupS,
	}
}

// tracedSet is what one traced invocation of a workload collects: its own
// untraced run, its sequential twin's (parallel workloads only), the
// traced run and the telemetry run (verifications only).
type tracedSet struct {
	run, twin, trace, obs *sample
}

// perLayerValues derives every per-layer metric from a traced set. Metrics
// marked † in the README read the untraced run; the rest read the spans.
func perLayerValues(w workload, ts tracedSet) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	run, tr := ts.run, ts.trace
	layer := func(c class) layerStat { return tr.Layers[classNames[c]] }
	stats := func(c class, perCall bool) {
		l, name := layer(c), classNames[c]
		m[name+".calls"] = float64(l.Calls)
		m[name+".busy_s"] = l.BusyS
		if perCall {
			m[name+".ns_per_call"] = ratio(l.BusyS*1e9, float64(l.Calls))
		}
	}
	m["trace.timer_ns"] = tr.TimerNS
	m["trace.overhead_ratio"] = ratio(tr.WallS, run.WallS)
	m["mc.check_fixed_us"] = tr.CheckFixedUS
	m["mc.par_cpu_ratio"] = ratio(run.CPUS, run.WallS)
	m["msi.pool_hit_ratio"] = ratio(float64(run.PoolHits), float64(run.PoolHits+run.PoolMisses))
	m["runtime.gc_cpu_share"] = ratio(run.GCCPUS, run.BusyCPUS)
	m["runtime.gc_cycles"] = float64(run.GCCycles)

	if w.Synth {
		m["core.dispatch.count"], m["core.dispatch.busy_s"] = float64(layer(clsDispatch).Calls), layer(clsDispatch).BusyS
		m["core.dispatch.us_p50"], m["core.dispatch.us_p99"] = tr.DispatchP50, tr.DispatchP99
		m["core.select.busy_s"], m["core.select.us_p99"] = layer(clsSelect).BusyS, tr.SelectP99
		m["core.reverify.busy_s"] = layer(clsReverify).BusyS
		m["core.span_coverage"] = spanCoverage(tr, w.Workers)
		m["core.evaluated"] = float64(run.Evaluated)
		m["core.skipped"] = float64(run.Skipped)
		m["core.patterns"] = float64(run.Patterns)
		m["core.rounds"] = float64(run.Rounds)
		m["core.prune_ratio"] = ratio(float64(run.Skipped), float64(run.Skipped+run.Evaluated))
		m["core.pattern_yield"] = ratio(float64(run.Skipped), float64(run.Patterns))
		m["core.states_per_dispatch"] = ratio(float64(run.TotalStates), float64(run.Evaluated))
		m["core.mallocs_per_dispatch"] = ratio(float64(run.Mallocs), float64(run.Evaluated))
		if ts.twin != nil {
			m["core.par_speedup"] = ratio(ts.twin.WallS, run.WallS)
		}
		return m
	}

	stats(clsEnumerate, true)
	stats(clsFire, true)
	stats(clsRecycle, false)
	m["msi.invariants.busy_s"] = layer(clsInvariants).BusyS
	stats(clsCanon, true)
	m["symmetry.orbit_sum"] = float64(tr.OrbitSum)
	stats(clsKey, true)
	m["statespace.key.bytes_mean"] = ratio(float64(tr.KeyBytes), float64(layer(clsKey).Calls))
	m["statespace.queue.busy_s"] = layer(clsQueue).BusyS
	m["statespace.queue.peak"] = float64(tr.QueuePeak)
	stats(clsInsert, true)
	m["visited.insert.new_ratio"] = ratio(float64(tr.States), float64(layer(clsInsert).Calls))
	stats(clsLevelMerge, false)
	m["visited.bytes_per_state"] = ratio(float64(run.VisitedBytes), float64(run.States))
	m["visited.spilled_mb"] = float64(run.SpilledBytes) / (1 << 20)
	m["visited.spill_runs"] = float64(run.SpillRuns)
	m["visited.io_retries"] = float64(tr.IORetries)

	// The residual is what mc.Check spends that no layer call accounts
	// for: its own loop, bookkeeping and, with two workers, the negative of
	// what parallelism saved. Layer busy + residual = untraced wall by
	// construction.
	var busy float64
	for _, c := range walkClasses {
		busy += layer(c).BusyS
	}
	m["mc.walk.wall_s"] = tr.WallS
	m["mc.residual_s"] = run.WallS - busy
	m["mc.residual_share"] = ratio(run.WallS-busy, run.WallS)
	m["mc.mallocs_per_state"] = ratio(float64(run.Mallocs), float64(run.States))
	m["mc.alloc_bytes_per_state"] = ratio(float64(run.AllocBytes), float64(run.States))
	if ts.twin != nil {
		m["mc.par_speedup"] = ratio(ts.twin.WallS, run.WallS)
	}

	if o := ts.obs; o != nil {
		var total float64
		for _, sec := range o.ObsPhaseS {
			total += sec
		}
		m["obs.phase_coverage"] = ratio(total, o.WallS*float64(w.Workers))
		m["obs.overhead_ratio"] = ratio(o.WallS, run.WallS)
		for phase, sec := range o.ObsPhaseS {
			m["obs."+phase+"_share"] = ratio(sec, total)
		}
	}
	return m
}
