// Command verc3-report validates and summarizes the machine-readable
// run reports the other binaries write under -report. It is the
// consumer side of the report schema: CI uses -validate to fail the
// build when a report stops round-tripping, and the default mode
// renders a quick human digest of a saved run.
//
// Usage:
//
//	verc3-report report.json...           summarize each report
//	verc3-report -validate report.json... schema-check only (quiet)
//
// Only the current schema (version 3) validates; a file of any other
// version is rejected with a message naming it. The summary surfaces the
// abort fields (aborted, abort_cause) when present.
//
// Exit status is 0 when every report parses and validates, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"verc3/internal/obs"
)

func main() {
	validate := flag.Bool("validate", false, "validate only: no output on success, exit 1 on any invalid report")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "verc3-report: no report files given")
		os.Exit(2)
	}
	code := 0
	for i, path := range flag.Args() {
		r, err := obs.ReadReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "verc3-report:", err)
			code = 1
			continue
		}
		if *validate {
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		summarize(path, r)
	}
	os.Exit(code)
}

func summarize(path string, r *obs.Report) {
	elapsed := time.Duration(r.ElapsedNS)
	fmt.Printf("%s: %s", path, r.Tool)
	if r.System != "" {
		fmt.Printf(" -system %s", r.System)
	}
	fmt.Printf(" (%s %s/%s, GOMAXPROCS=%d, %s)\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS, r.Start.Format(time.RFC3339))
	fmt.Printf("  verdict:  %s in %v\n", r.Verdict, elapsed.Round(time.Millisecond))
	if r.Aborted {
		fmt.Printf("  aborted:  %s\n", r.AbortCause)
	}
	states := r.Final.Counters[obs.CStates]
	rate := 0.0
	if r.ElapsedNS > 0 {
		rate = float64(states) / (float64(r.ElapsedNS) / 1e9)
	}
	fmt.Printf("  explored: %d states, %d transitions, %d duplicates (%.0f states/s)\n",
		states, r.Final.Counters[obs.CTransitions], r.Final.Counters[obs.CDuplicates], rate)
	if ev := r.Final.Counters[obs.CEvaluated]; ev > 0 {
		fmt.Printf("  synth:    %d evaluated, %d skipped, %d solutions in %d rounds\n",
			ev, r.Final.Counters[obs.CSkipped], r.Final.Counters[obs.CSolutions],
			r.Final.Gauges[obs.GRound])
	}
	fmt.Printf("  timeline: %d snapshots, %d events (%d dropped)\n",
		len(r.Timeline), len(r.Events), r.EventsDropped)
	if len(r.Phases) > 0 {
		names := make([]string, 0, len(r.Phases))
		for name := range r.Phases {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("  phases (sampled):\n")
		for _, name := range names {
			hs := r.Phases[name]
			fmt.Printf("    %-12s %9d obs, mean %v\n",
				name, hs.Count, time.Duration(hs.MeanNS()).Round(10*time.Nanosecond))
		}
	}
}
