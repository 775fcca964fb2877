// Command verc3-synth runs the synthesis procedure on a built-in skeleton
// — or a sketch loaded from a verc3_model_v1 JSON spec file — and prints
// the discovered holes, search statistics and every correctly verified
// candidate.
//
// Usage:
//
//	verc3-synth -system msi-small [-caches 2] [-mode prune|naive]
//	            [-workers 4] [-mc-workers 1] [-style full|trace] [-max-eval N]
//	            [-liveness] [-visited flat|spill] [-spill-mem-mb N]
//	            [-spill-dir DIR] [-timeout D] [-progress] [-report FILE]
//	            [-cpuprofile FILE] [-memprofile FILE] [-stats] [-v]
//	verc3-synth -spec examples/specs/mutex-sketch.json [...]
//
// -timeout bounds the search's wall-clock time; SIGINT/SIGTERM cancel it
// the same way. The search winds down cooperatively: in-flight candidate
// checks abort, the partial statistics print with an ABORTED note, exit
// code is 3, and profiles and -report still flush. A candidate whose
// model code panics is contained — it is recorded as a failed candidate
// (never generalized into a pruning pattern) and the search continues.
//
// -spec loads the sketch from a JSON model spec (see internal/spec): its
// choose holes are discovered and bound through the same engine as
// compiled-in skeletons. A spec without holes is accepted too — the
// search space is the single empty candidate, so the run degenerates to
// one verification.
//
// -progress renders a live status line on stderr (rounds, candidates
// evaluated/skipped, pruning patterns, aggregate exploration rate), and
// -report writes a machine-readable run report, including the structured
// round and solution events, at exit.
//
// A -mode naive run cut short by -max-eval also prints an extrapolated
// time for the whole candidate space (elapsed / evaluated × candidates);
// that is how Table I's MSI-large naive row is reproduced (EXPERIMENTS.md).
//
// With -liveness, every candidate dispatch additionally runs the nested-DFS
// accepting-cycle search, so candidates that are safe but starve a liveness
// goal are pruned too; winners are re-verified under the same option.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"verc3/internal/cliutil"
	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/obs"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

func main() {
	var (
		system    = flag.String("system", "msi-small", "skeleton to synthesize ("+strings.Join(zoo.Names(), ", ")+")")
		caches    = flag.Int("caches", 0, "MSI cache count (0 = default 3)")
		mode      = flag.String("mode", "prune", "synthesis mode: prune or naive")
		style     = flag.String("style", "full", "pruning pattern style: full (paper) or trace (generalized)")
		workers   = flag.Int("workers", 1, "parallel synthesis workers (cross-candidate)")
		mcWorkers = flag.Int("mc-workers", 1, "intra-check exploration workers per dispatch")
		symmetry  = flag.Bool("symmetry", true, "enable symmetry reduction in the model checker")
		liveness  = flag.Bool("liveness", false, "check declared liveness goals (nested DFS) on every candidate dispatch")
		maxEval   = flag.Int64("max-eval", 0, "stop after N model-checker dispatches (0 = run to completion)")
		verbose   = flag.Bool("v", false, "log rounds and solutions as they are found")
	)
	cf := cliutil.RegisterCommon()
	flag.Parse()

	if err := cf.Validate(
		cliutil.IntFlag{Name: "-caches", Value: int64(*caches)},
		cliutil.IntFlag{Name: "-workers", Value: int64(*workers)},
		cliutil.IntFlag{Name: "-mc-workers", Value: int64(*mcWorkers)},
		cliutil.IntFlag{Name: "-max-eval", Value: *maxEval},
	); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-synth:", err)
		os.Exit(2)
	}

	backend, err := cf.Backend()
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-synth:", err)
		os.Exit(2)
	}
	var sys ts.System
	name := *system
	if m, err := cf.LoadSpec(); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-synth:", err)
		os.Exit(2)
	} else if m != nil {
		sys, name = m.System(), m.Name()
	} else {
		sys, err = zoo.Get(*system, zoo.Params{Caches: *caches})
		if err != nil {
			fmt.Fprintln(os.Stderr, "verc3-synth:", err)
			os.Exit(2)
		}
	}
	cfg := core.Config{
		Workers:   *workers,
		MCWorkers: *mcWorkers,
		MC: mc.Options{
			Symmetry: *symmetry,
			Liveness: *liveness,
		},
		MaxEvaluations: *maxEval,
	}
	cf.ApplyMC(&cfg.MC, backend)
	switch *mode {
	case "prune":
		cfg.Mode = core.ModePrune
	case "naive":
		cfg.Mode = core.ModeNaive
	default:
		fmt.Fprintf(os.Stderr, "verc3-synth: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	switch *style {
	case "full":
		cfg.PruneStyle = core.PruneFullVector
	case "trace":
		cfg.PruneStyle = core.PruneTraceGeneralized
	default:
		fmt.Fprintf(os.Stderr, "verc3-synth: unknown -style %q\n", *style)
		os.Exit(2)
	}
	tel, exit, err := cf.Start("verc3-synth", name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-synth:", err)
		exit(2)
	}
	cfg.Obs = tel.Collector()
	if *verbose {
		// Route round/solution logs through the telemetry writer: they land
		// on stderr and never tear the -progress status line (the old
		// stdout Printf interleaved with summary and sampler output).
		cfg.Events = func(ev obs.Event) { tel.Logf("· %s", ev.Text) }
	}

	ctx, stop := cf.Context("verc3-synth")
	start := time.Now()
	allocs := cf.Allocs()
	res, err := core.SynthesizeCtx(ctx, sys, cfg)
	elapsed := time.Since(start)
	stop()
	if err != nil {
		tel.Finish(nil)
		fmt.Fprintln(os.Stderr, "verc3-synth:", err)
		exit(2)
	}
	allocs(&res.Stats.Space)
	st := res.Stats
	out := tel.Status()
	fmt.Fprintf(out, "system:           %s\n", sys.Name())
	fmt.Fprintf(out, "mode:             %s (%s, %d workers)\n", cfg.Mode, cfg.PruneStyle, cfg.Workers)
	fmt.Fprintf(out, "holes:            %d\n", st.Holes)
	for i, n := range res.HoleNames {
		fmt.Fprintf(out, "  %2d. %-24s {%s}\n", i+1, n, strings.Join(res.HoleActions[i], ", "))
	}
	fmt.Fprintf(out, "candidates:       %d\n", st.CandidateSpace)
	fmt.Fprintf(out, "evaluated:        %d\n", st.Evaluated)
	fmt.Fprintf(out, "pruned (skipped): %d\n", st.Skipped)
	fmt.Fprintf(out, "pruning patterns: %d\n", st.Patterns)
	fmt.Fprintf(out, "verdicts:         %d success / %d failure / %d unknown\n", st.Successes, st.Failures, st.Unknowns)
	if st.Panicked > 0 {
		fmt.Fprintf(out, "panicked:         %d (contained model-code panics; counted as failures, never generalized into pruning patterns)\n", st.Panicked)
	}
	fmt.Fprintf(out, "rounds:           %d\n", st.Rounds)
	if st.Aborted {
		fmt.Fprintf(out, "ABORTED: %s (search cut short; counts above cover the completed prefix)\n", st.AbortCause)
	}
	if st.Truncated {
		fmt.Fprintf(out, "NOTE: truncated by -max-eval=%d\n", *maxEval)
	}
	fmt.Fprintf(out, "elapsed:          %v\n", elapsed.Round(time.Millisecond))
	if cfg.Mode == core.ModeNaive && st.Truncated {
		full := time.Duration(float64(elapsed) / float64(st.Evaluated) * float64(st.CandidateSpace))
		fmt.Fprintf(out, "extrapolated:     ~%v for all %d candidates\n", full.Round(time.Millisecond), st.CandidateSpace)
	}
	if cf.Stats {
		fmt.Fprintf(out, "space:            %s\n", st.Space)
	}
	fmt.Fprintf(out, "solutions:        %d\n", len(res.Solutions))
	for i, sol := range res.Solutions {
		mark := ""
		if sol.Reverified {
			mark = ", reverified"
		}
		fmt.Fprintf(out, "  #%d (%d states%s): %s\n", i+1, sol.VisitedStates, mark, res.Describe(i))
	}
	verdict := "solutions"
	if len(res.Solutions) == 0 {
		verdict = "no-solutions"
	}
	code := 0
	if len(res.Solutions) == 0 && !st.Truncated && !st.Aborted {
		code = 1
	}
	if st.Aborted {
		code = 3
	}
	if err := tel.Finish(&cliutil.RunSummary{
		Verdict: verdict, Space: st.Space,
		Aborted: st.Aborted, AbortCause: st.AbortCause,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-synth:", err)
		if code == 0 {
			code = 2
		}
	}
	exit(code)
}
