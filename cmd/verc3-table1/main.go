// Command verc3-table1 regenerates Table I of the paper: the MSI coherence
// protocol case study, six configurations crossing problem size (MSI-small,
// MSI-large) with synthesis strategy (naive enumeration, candidate pruning
// 1 thread, candidate pruning 4 threads).
//
// The full MSI-large naive run evaluates 102,102,525 candidates (8.8 hours
// for the paper's C++ on an i7; far longer here), so by default it is
// truncated after -naive-large-max dispatches and the total time is
// extrapolated from the measured per-candidate cost; pass -full to run it
// to completion.
//
// Usage:
//
//	verc3-table1 [-caches 2] [-workers 4] [-mc-workers 1] [-naive-large-max 20000]
//	             [-full] [-skip-naive] [-visited flat|spill]
//	             [-spill-mem-mb N] [-spill-dir DIR] [-timeout D] [-stats]
//	             [-progress] [-metrics-addr ADDR] [-report FILE]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// -timeout (or SIGINT/SIGTERM) bounds the whole table regeneration: the
// in-flight row aborts cooperatively, remaining rows are skipped, the
// rows that did finish still print, and the exit code is 3.
//
// The workload is fixed (the paper's MSI sketches), so the shared -spec
// flag is refused with a pointer to verc3-verify/verc3-synth.
//
// The telemetry flags aggregate across all six configurations: -progress
// shows the live cross-row exploration rate, and -report records one
// report whose counters and Space profile sum every row's dispatches.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"verc3/internal/cliutil"
	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/statespace"
)

type row struct {
	name      string
	variant   msi.Variant
	mode      core.Mode
	workers   int
	truncate  int64 // 0 = full run
	res       *core.Result
	elapsed   time.Duration
	extrapol  time.Duration // estimated full time when truncated
	fullSpace uint64        // naive candidate space for extrapolation
}

func main() {
	var (
		caches     = flag.Int("caches", 2, "MSI cache count")
		workers    = flag.Int("workers", 4, "worker count for the parallel rows")
		mcWorkers  = flag.Int("mc-workers", 1, "intra-check exploration workers per model-checker dispatch")
		naiveLgMax = flag.Int64("naive-large-max", 20000, "dispatch cap for the MSI-large naive row")
		full       = flag.Bool("full", false, "run every configuration to completion (MSI-large naive: days)")
		skipNaive  = flag.Bool("skip-naive", false, "skip both naive rows entirely")
	)
	cf := cliutil.RegisterCommon()
	flag.Parse()

	if err := cf.Validate(
		cliutil.IntFlag{Name: "-caches", Value: int64(*caches)},
		cliutil.IntFlag{Name: "-workers", Value: int64(*workers)},
		cliutil.IntFlag{Name: "-mc-workers", Value: int64(*mcWorkers)},
		cliutil.IntFlag{Name: "-naive-large-max", Value: *naiveLgMax},
	); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-table1:", err)
		os.Exit(2)
	}
	cliutil.RefuseSpec("verc3-table1", "the paper's Table I MSI case study", cf)

	backend, err := cf.Backend()
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-table1:", err)
		os.Exit(2)
	}

	tel, exit, err := cf.Start("verc3-table1", "msi")
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-table1:", err)
		exit(2)
	}

	rows := []*row{
		{name: "MSI-small 1 thread, no pruning", variant: msi.Small, mode: core.ModeNaive, workers: 1},
		{name: "MSI-small 1 thread, pruning", variant: msi.Small, mode: core.ModePrune, workers: 1},
		{name: fmt.Sprintf("MSI-small %d threads, pruning", *workers), variant: msi.Small, mode: core.ModePrune, workers: *workers},
		{name: "MSI-large 1 thread, no pruning", variant: msi.Large, mode: core.ModeNaive, workers: 1, truncate: *naiveLgMax},
		{name: "MSI-large 1 thread, pruning", variant: msi.Large, mode: core.ModePrune, workers: 1},
		{name: fmt.Sprintf("MSI-large %d threads, pruning", *workers), variant: msi.Large, mode: core.ModePrune, workers: *workers},
	}
	if *full {
		rows[3].truncate = 0
	}

	ctx, stop := cf.Context("verc3-table1")
	var aggSpace statespace.Stats
	aborted := false
	abortCause := ""
	for _, r := range rows {
		if *skipNaive && r.mode == core.ModeNaive {
			continue
		}
		sys := msi.New(msi.Config{Caches: *caches, Variant: r.variant})
		tel.Logf("running %-34s ...", r.name)
		start := time.Now()
		mcOpt := mc.Options{Symmetry: true}
		cf.ApplyMC(&mcOpt, backend)
		allocs := cf.Allocs()
		res, err := core.SynthesizeCtx(ctx, sys, core.Config{
			Mode:           r.mode,
			Workers:        r.workers,
			MCWorkers:      *mcWorkers,
			Obs:            tel.Collector(),
			MC:             mcOpt,
			MaxEvaluations: r.truncate,
		})
		if err != nil {
			tel.Finish(nil)
			fmt.Fprintln(os.Stderr, "error:", err)
			exit(2)
		}
		r.res = res
		r.elapsed = time.Since(start)
		allocs(&res.Stats.Space)
		aggSpace.Merge(res.Stats.Space)
		if res.Stats.Aborted {
			aborted, abortCause = true, res.Stats.AbortCause
			tel.Logf("  %-34s aborted: %s; skipping remaining rows", r.name, abortCause)
			break
		}
		if res.Stats.Truncated {
			perCand := r.elapsed / time.Duration(res.Stats.Evaluated)
			r.fullSpace = res.Stats.CandidateSpace
			r.extrapol = perCand * time.Duration(r.fullSpace)
		}
		tel.Logf("  %-34s %v", r.name, r.elapsed.Round(time.Millisecond))
	}
	stop()

	out := tel.Status()
	fmt.Fprintf(out, "\nTable I (regenerated; caches=%d, GOMAXPROCS-bound parallelism)\n\n", *caches)
	fmt.Fprintf(out, "%-34s %6s %14s %18s %12s %10s %14s\n",
		"Configuration", "Holes", "Candidates", "Pruning Patterns", "Evaluated", "Solutions", "Exec. Time")
	for _, r := range rows {
		if r.res == nil {
			continue
		}
		st := r.res.Stats
		pat := "N/A"
		if r.mode == core.ModePrune {
			pat = fmt.Sprint(st.Patterns)
		}
		tm := r.elapsed.Round(10 * time.Millisecond).String()
		ev := fmt.Sprint(st.Evaluated)
		if st.Truncated {
			tm = fmt.Sprintf("~%v (extrapolated)", r.extrapol.Round(time.Minute))
			ev = fmt.Sprintf("%d (sampled; full=%d)", st.Evaluated, r.fullSpace)
		}
		if st.Aborted {
			tm = fmt.Sprintf("%v (aborted)", r.elapsed.Round(10*time.Millisecond))
		}
		fmt.Fprintf(out, "%-34s %6d %14d %18s %12s %10d %14s\n",
			r.name, st.Holes, st.CandidateSpace, pat, ev, len(r.res.Solutions), tm)
	}
	if cf.Stats {
		fmt.Fprintln(out)
		for _, r := range rows {
			if r.res == nil {
				continue
			}
			fmt.Fprintf(out, "space %-28s %s\n", r.name+":", r.res.Stats.Space)
		}
	}

	// Derived headline metrics, mirroring §III's discussion. Aborted rows
	// carry partial times that would skew every ratio, so they opt out.
	done := func(r *row) bool { return r.res != nil && !r.res.Stats.Aborted }
	speedup := func(naive, prune *row) {
		if !done(naive) || !done(prune) {
			return
		}
		nt := naive.elapsed
		if naive.res.Stats.Truncated {
			nt = naive.extrapol
		}
		nEval := float64(naive.res.Stats.CandidateSpace)
		if !naive.res.Stats.Truncated {
			nEval = float64(naive.res.Stats.Evaluated)
		}
		red := 100 * (1 - float64(prune.res.Stats.Evaluated)/nEval)
		qual := ""
		if naive.res.Stats.Truncated {
			qual = " (naive time extrapolated)"
		}
		fmt.Fprintf(out, "\n%s: evaluated-candidate reduction %.2f%%, speedup %.1fx%s (paper: 99.6%%/35.8x small, 99.8%%/42.7x large)\n",
			prune.name, red, float64(nt)/float64(prune.elapsed), qual)
	}
	speedup(rows[0], rows[1])
	speedup(rows[3], rows[4])
	if done(rows[1]) && done(rows[2]) {
		fmt.Fprintf(out, "parallel small: %.2fx over 1-thread pruning (paper: 1.5x; needs >1 CPU to materialize)\n",
			float64(rows[1].elapsed)/float64(rows[2].elapsed))
	}
	if done(rows[4]) && done(rows[5]) {
		fmt.Fprintf(out, "parallel large: %.2fx over 1-thread pruning (paper: 2.5x; needs >1 CPU to materialize)\n",
			float64(rows[4].elapsed)/float64(rows[5].elapsed))
	}
	verdict := "completed"
	code := 0
	if aborted {
		fmt.Fprintf(out, "\nABORTED: %s (rows after the break were skipped)\n", abortCause)
		verdict, code = "aborted", 3
	}
	if err := tel.Finish(&cliutil.RunSummary{
		Verdict: verdict, Space: aggSpace,
		Aborted: aborted, AbortCause: abortCause,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-table1:", err)
		if code == 0 {
			code = 2
		}
	}
	exit(code)
}
