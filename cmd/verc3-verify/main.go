// Command verc3-verify model-checks a built-in system — or one loaded from
// a verc3_model_v1 JSON spec file — and reports the verdict, exploration
// statistics and, on failure, a minimal counterexample trace. Synthesis
// sketches (systems with unassigned holes) are refused with a pointer to
// verc3-synth.
//
// Usage:
//
//	verc3-verify -system msi-complete [-caches 3] [-symmetry=false] [-states]
//	             [-liveness] [-dfs] [-workers N] [-no-trace] [-stats]
//	             [-visited flat|spill] [-spill-mem-mb N] [-spill-dir DIR]
//	             [-timeout D] [-progress] [-report FILE]
//	             [-cpuprofile FILE] [-memprofile FILE]
//	verc3-verify -spec examples/specs/tokenring.json [-liveness] [...]
//
// -timeout bounds the run's wall-clock time; SIGINT/SIGTERM cancel it the
// same way. Either path winds the run down cooperatively: the verdict is
// "aborted" (exit code 3), partial statistics are printed, and profiles,
// -report and spill cleanup still happen. A second signal exits
// immediately.
//
// -spec loads the system from a JSON model spec (see internal/spec and the
// committed examples under examples/specs/) instead of the compiled-in
// zoo; every other flag works the same.
//
// -progress renders a live status line on stderr (states/sec, depth,
// frontier, visited memory, cap %), and -report writes a versioned
// machine-readable run report at exit (validate or summarize it with
// verc3-report).
//
// With -liveness, systems declaring liveness goals additionally run the
// nested-DFS accepting-cycle search after the safety pass; violations
// render as lasso counterexamples (stem + cycle).
//
// -stats prints the exploration memory profile, with the heap allocations
// the whole run made.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"verc3/internal/cliutil"
	"verc3/internal/mc"
	"verc3/internal/trace"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

func main() {
	var (
		system   = flag.String("system", "msi-complete", "system to verify ("+strings.Join(zoo.Names(), ", ")+")")
		caches   = flag.Int("caches", 0, "MSI cache count (0 = default 3)")
		symmetry = flag.Bool("symmetry", true, "enable scalarset symmetry reduction")
		liveness = flag.Bool("liveness", false, "after the safety pass, check declared liveness goals with nested DFS")
		states   = flag.Bool("states", false, "print states along the counterexample trace")
		dfs      = flag.Bool("dfs", false, "use depth-first search (traces not minimal)")
		maxSt    = flag.Int("max-states", 0, "state cap (0 = unlimited)")
		workers  = flag.Int("workers", 1, "exploration workers (0 = GOMAXPROCS; 1 is deterministic with minimal counterexamples)")
		noTrace  = flag.Bool("no-trace", false, "skip trace recording (fingerprint-only memory; failures carry no counterexample)")
	)
	cf := cliutil.RegisterCommon()
	flag.Parse()

	if err := cf.Validate(
		cliutil.IntFlag{Name: "-caches", Value: int64(*caches)},
		cliutil.IntFlag{Name: "-max-states", Value: int64(*maxSt)},
		cliutil.IntFlag{Name: "-workers", Value: int64(*workers)},
	); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-verify:", err)
		os.Exit(2)
	}

	backend, err := cf.Backend()
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-verify:", err)
		os.Exit(2)
	}

	var sys ts.System
	name := *system
	if m, err := cf.LoadSpec(); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-verify:", err)
		os.Exit(2)
	} else if m != nil {
		if m.Sketch() {
			fmt.Fprintf(os.Stderr,
				"verc3-verify: spec %q is a synthesis sketch: its rules contain unassigned choose\n"+
					"holes, which plain model checking cannot resolve. Complete it with the synthesis\n"+
					"tool instead:\n\n"+
					"\tverc3-synth -spec %s\n", m.Name(), cf.Spec)
			os.Exit(2)
		}
		sys, name = m.System(), m.Name()
	} else {
		if zoo.IsSketch(*system) {
			fmt.Fprintf(os.Stderr,
				"verc3-verify: system %q is a synthesis sketch: its transitions contain unassigned holes,\n"+
					"which plain model checking cannot resolve. Complete it with the synthesis tool instead:\n\n"+
					"\tverc3-synth -system %s\n", *system, *system)
			os.Exit(2)
		}
		sys, err = zoo.Get(*system, zoo.Params{Caches: *caches})
		if err != nil {
			fmt.Fprintln(os.Stderr, "verc3-verify:", err)
			os.Exit(2)
		}
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	tel, exit, err := cf.Start("verc3-verify", name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-verify:", err)
		exit(2)
	}
	opt := mc.Options{
		Obs:         tel.Collector(),
		Symmetry:    *symmetry,
		RecordTrace: !*noTrace,
		MaxStates:   *maxSt,
		Workers:     *workers,
		Liveness:    *liveness,
	}
	cf.ApplyMC(&opt, backend)
	if *dfs {
		opt.Order = mc.DFS
	}
	ctx, stop := cf.Context("verc3-verify")
	start := time.Now()
	allocs := cf.Allocs()
	res, err := mc.CheckCtx(ctx, sys, opt)
	stop()
	if err != nil {
		tel.Finish(nil)
		fmt.Fprintln(os.Stderr, "verc3-verify:", err)
		exit(2)
	}
	allocs(&res.Space)
	// The whole human-readable summary stages into the telemetry Status
	// buffer and lands in one flush inside Finish, after the -progress
	// status line is gone — no interleaving with sampler repaints.
	st := tel.Status()
	fmt.Fprintf(st, "system:      %s\n", sys.Name())
	fmt.Fprintf(st, "verdict:     %s\n", res.Verdict)
	abortCause := ""
	if res.Abort != nil {
		abortCause = res.Abort.Cause.Error()
		fmt.Fprintf(st, "abort cause: %s\n", abortCause)
		if res.Abort.Panic && res.Abort.StateKey != "" {
			fmt.Fprintf(st, "panic state: %s\n", res.Abort.StateKey)
		}
	}
	fmt.Fprintf(st, "states:      %d\n", res.Stats.VisitedStates)
	fmt.Fprintf(st, "transitions: %d\n", res.Stats.FiredTransitions)
	fmt.Fprintf(st, "max depth:   %d\n", res.Stats.MaxDepth)
	if *liveness {
		fmt.Fprintf(st, "ndfs:        %d blue + %d red product states\n", res.Space.LiveStates, res.Space.RedStates)
	}
	fmt.Fprintf(st, "elapsed:     %v\n", time.Since(start).Round(time.Millisecond))
	if cf.Stats {
		fmt.Fprintf(st, "space:       %s\n", res.Space)
	}
	code := 0
	if res.Verdict == mc.Failure {
		fmt.Fprintln(st)
		fmt.Fprint(st, trace.Format(res.Failure, trace.Options{ShowStates: *states}))
		code = 1
	}
	if res.Verdict == mc.Aborted {
		code = 3
		if res.Abort.Panic && res.Abort.Stack != "" {
			// The contained panic's stack goes to stderr, not the summary:
			// it is diagnostic output, like any other crash report.
			fmt.Fprintf(os.Stderr, "verc3-verify: model panic at state %q:\n%s", res.Abort.StateKey, res.Abort.Stack)
		}
	}
	if err := tel.Finish(&cliutil.RunSummary{
		Verdict: res.Verdict.String(), Space: res.Space,
		Aborted: res.Verdict == mc.Aborted, AbortCause: abortCause,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-verify:", err)
		if code == 0 {
			code = 2
		}
	}
	exit(code)
}
