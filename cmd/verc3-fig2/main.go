// Command verc3-fig2 regenerates the paper's Figure 2 worked example: it
// synthesizes the 4-hole chain system with candidate pruning and prints the
// run-by-run table (candidate evaluated, verdict, pruning pattern inserted,
// holes discovered), then compares against the naive enumeration count.
//
// Usage:
//
//	verc3-fig2 [-visited flat|spill] [-spill-mem-mb N]
//	           [-spill-dir DIR] [-timeout D] [-progress] [-metrics-addr ADDR]
//	           [-report FILE] [-cpuprofile FILE] [-memprofile FILE] [-stats]
//
// The workload is fixed (the paper's chain system), so the shared -spec
// flag is refused with a pointer to verc3-verify/verc3-synth.
//
// The run-by-run table streams to stdout as candidates are evaluated;
// the telemetry flags cover both the pruning and the naive run, and
// -report aggregates their counters into one report.
package main

import (
	"flag"
	"fmt"
	"os"

	"verc3/internal/cliutil"
	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/toy"
)

func main() {
	cf := cliutil.RegisterCommon()
	flag.Parse()

	if err := cf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-fig2:", err)
		os.Exit(2)
	}
	cliutil.RefuseSpec("verc3-fig2", "the fixed Figure 2 workload", cf)

	backend, err := cf.Backend()
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-fig2:", err)
		os.Exit(2)
	}

	tel, exit, err := cf.Start("verc3-fig2", "toy-fig2")
	if err != nil {
		fmt.Fprintln(os.Stderr, "verc3-fig2:", err)
		exit(2)
	}

	g := toy.Figure2()

	fmt.Println("Figure 2 worked example: 4 holes; hole 1 has actions {A,B,C}, holes 2-4 {A,B}.")
	fmt.Println()
	fmt.Printf("%4s  %-28s  %-8s  %-9s  %s\n", "Run", "Candidate", "Verdict", "Patterns", "Holes")

	run := 0
	lastPatterns := 0
	var events []core.Event
	var mcOpt mc.Options
	cf.ApplyMC(&mcOpt, backend)
	ctx, stop := cf.Context("verc3-fig2")
	allocs := cf.Allocs()
	res, err := core.SynthesizeCtx(ctx, g, core.Config{
		Mode: core.ModePrune,
		MC:   mcOpt,
		Obs:  tel.Collector(),
		OnEvaluate: func(ev core.Event) {
			run++
			mark := ""
			if ev.Patterns > lastPatterns {
				mark = fmt.Sprintf("+%d", ev.Patterns-lastPatterns)
			}
			lastPatterns = ev.Patterns
			fmt.Printf("%4d  %-28s  %-8s  %-9s  %d\n", run, describe(ev.Assign, ev.Holes), ev.Verdict, mark, ev.Holes)
			events = append(events, ev)
		},
	})
	if err != nil {
		tel.Finish(nil)
		fmt.Fprintln(os.Stderr, "verc3-fig2:", err)
		exit(2)
	}
	allocs(&res.Stats.Space)

	allocs = cf.Allocs()
	naive, err := core.SynthesizeCtx(ctx, g, core.Config{Mode: core.ModeNaive, MC: mcOpt, Obs: tel.Collector()})
	stop()
	if err != nil {
		tel.Finish(nil)
		fmt.Fprintln(os.Stderr, "verc3-fig2:", err)
		exit(2)
	}
	allocs(&naive.Stats.Space)
	aborted := res.Stats.Aborted || naive.Stats.Aborted
	abortCause := res.Stats.AbortCause
	if abortCause == "" {
		abortCause = naive.Stats.AbortCause
	}

	// The run table above streamed straight to stdout; only the trailing
	// summary stages through the telemetry Status buffer, so it flushes
	// after the -progress line clears and still lands below the table.
	out := tel.Status()
	fmt.Fprintln(out)
	fmt.Fprintf(out, "pruning:  %d candidates evaluated, %d pruning patterns, %d solution(s)\n",
		res.Stats.Evaluated, res.Stats.Patterns, len(res.Solutions))
	for i := range res.Solutions {
		fmt.Fprintf(out, "  solution: %s\n", res.Describe(i))
	}
	fmt.Fprintf(out, "naive:    %d of the nominal %d candidates evaluated\n",
		naive.Stats.Evaluated, naive.Stats.CandidateSpace)
	if cf.Stats {
		fmt.Fprintf(out, "space (pruning): %s\n", res.Stats.Space)
		fmt.Fprintf(out, "space (naive):   %s\n", naive.Stats.Space)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Paper (Fig. 2): 10 runs with pruning versus 24 naive candidates.")
	agg := res.Stats.Space
	agg.Merge(naive.Stats.Space)
	verdict := "completed"
	code := 0
	if aborted {
		fmt.Fprintf(out, "\nABORTED: %s (counts above cover the completed prefix)\n", abortCause)
		verdict, code = "aborted", 3
	}
	if err := tel.Finish(&cliutil.RunSummary{
		Verdict: verdict, Space: agg,
		Aborted: aborted, AbortCause: abortCause,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "verc3-fig2:", err)
		if code == 0 {
			code = 2
		}
	}
	exit(code)
}

// describe renders a candidate in the paper's ⟨1@A, 2@?⟩ notation; holes
// discovered but beyond the bound prefix print as wildcards.
func describe(assign []int, holes int) string {
	if holes == 0 {
		return "⟨⟩"
	}
	acts := [][]string{{"A", "B", "C"}, {"A", "B"}, {"A", "B"}, {"A", "B"}}
	s := "⟨"
	for i := 0; i < holes && i < len(acts); i++ {
		if i > 0 {
			s += ", "
		}
		if i < len(assign) {
			s += fmt.Sprintf("%d@%s", i+1, acts[i][assign[i]])
		} else {
			s += fmt.Sprintf("%d@?", i+1)
		}
	}
	return s + "⟩"
}
