// Command bench is the VerC3 benchmark (see README.md and the repository's
// BENCHMARK.json). It runs the closed workload table of workloads.go — the
// paper's MSI protocol at paper scale, verified four ways and synthesized
// two — checks every output against expected.json, and prints every
// metric by name with its unit, direction and regression bound.
//
// Every repetition is a cold child process of this binary (GOMAXPROCS=2,
// default GOGC, no GOMEMLIMIT). End-to-end numbers come from untraced
// children that call only mc.Check / core.Synthesize; per-layer numbers
// come from a separate traced child in which the bench's own code drives
// the layers' public functions and records a span around each call.
//
// Usage:
//
//	go run ./bench [-workload NAME] [-trace 0|1] [-seconds 10] [-seed N]
//	               [-reps N] [-selfcheck] [-trace-out FILE] [-o FILE]
//
// With -workload and -trace both given — the driver's form — the last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics for -trace 0, the per-layer metrics for
// -trace 1. Without -trace both sets are measured; without -workload every
// workload runs, one at a time, in an order the seed shuffles.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

// tmpPattern names an invocation's own directory for spill files. It is
// made in the working directory, so a run reads and writes only inside its
// checkout, and is removed on exit; invocations never share one.
const tmpPattern = ".bench_tmp-"

type options struct {
	workload  string
	trace     string // "" = both, "0" = end to end, "1" = per layer
	seconds   float64
	seed      int64
	reps      int
	selfcheck bool
	traceOut  string
	out       string
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	var child, specJSON string
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all six, one at a time)")
	fs.StringVar(&o.trace, "trace", "", "0 = end-to-end metrics only, 1 = per-layer metrics only (default: both)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time per workload, as the driver passes it; scales the repetition counts, which are set for 10")
	fs.Int64Var(&o.seed, "seed", 1, "recorded; the models are fixed, so it only shuffles the workload order")
	fs.IntVar(&o.reps, "reps", 0, "repetitions per workload (default: the workload table's, scaled by -seconds)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end suite twice and fail unless the two agree within the metrics' own bounds")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced run's raw spans to `FILE` as JSON lines (needs -workload)")
	fs.StringVar(&o.out, "o", "", "also write the result object to `FILE`")
	fs.StringVar(&child, "child", "", "internal: run one child of the given kind")
	fs.StringVar(&specJSON, "spec", "", "internal: the child's spec")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if child != "" {
		return childMain(child, specJSON, stdout)
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if o.traceOut != "" && o.workload == "" {
		fmt.Fprintln(stderr, "bench: -trace-out needs -workload")
		return 2
	}

	expected, err := loadExpected()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	todo := append([]workload(nil), workloads...)
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{w}
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmpRoot, err := os.MkdirTemp(".", tmpPattern)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmpRoot)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	r := &runner{ctx: ctx, self: self, tmpRoot: tmpRoot, stderr: stderr}

	fmt.Fprintf(stdout, "seed %d, %g s per workload, children at GOMAXPROCS=%s\n", o.seed, o.seconds, childProcs)
	var total result
	if o.selfcheck {
		total = selfcheck(r, todo, expected, o, stdout)
	} else {
		total = result{Metrics: map[string]metricValue{}}
		for _, w := range todo {
			// With several workloads the metric names gain the workload.
			prefix := ""
			if len(todo) > 1 {
				prefix = w.Name + ":"
			}
			total.merge(prefix, r.runWorkload(w, expected[w.Name], o, stdout))
		}
	}
	total.Correct = total.Failed == 0 && total.Attempted > 0
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
// Attempted and Failed count child runs; Correct means none failed.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// computed is what a one-worker workload's runs computed beyond the
	// pinned counts (candidates evaluated, patterns learnt, solution set);
	// it must be the same in every repetition and every set of runs.
	computed string
}

// merge folds r into t, prefixing r's metric names.
func (t *result) merge(prefix string, r result) {
	t.Attempted += r.Attempted
	t.Failed += r.Failed
	for name, v := range r.Metrics {
		t.Metrics[prefix+name] = v
	}
}

// childProcs pins every child's GOMAXPROCS: the parallel workloads ask for
// two workers whatever the machine, and an unpinned GOMAXPROCS would also
// change how much concurrent GC the sequential ones get.
const childProcs = "2"

// runner spawns children, strictly one at a time.
type runner struct {
	ctx     context.Context
	self    string
	tmpRoot string
	stderr  io.Writer
}

// child runs one child of the given kind and returns its sample. A child
// that dies without a sample is a failed run with the reason in Err.
func (r *runner) child(kind string, sp spec) *sample {
	sp.TmpRoot = r.tmpRoot
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return &sample{Err: err.Error()}
	}
	cmd := exec.CommandContext(r.ctx, r.self, "-child", kind, "-spec", string(specJSON))
	cmd.Env = childEnv(os.Environ())
	cmd.Stderr = r.stderr
	out, err := cmd.Output()
	s := new(sample)
	if jerr := json.Unmarshal(out, s); jerr != nil {
		if err == nil {
			err = jerr
		}
		return &sample{Err: fmt.Sprintf("%s child of %s: %v", kind, sp.Workload.Name, err)}
	}
	return s
}

// childEnv is the parent's environment with the Go runtime's knobs reset:
// GOMAXPROCS pinned, GOGC and GOMEMLIMIT at their defaults.
func childEnv(env []string) []string {
	out := make([]string, 0, len(env)+1)
	for _, kv := range env {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
		default:
			out = append(out, kv)
		}
	}
	return append(out, "GOMAXPROCS="+childProcs)
}

// repsFor scales a workload's repetition count to the measuring time.
// -selfcheck compares two medians with no driver behind it to repeat the
// invocation, so there every workload runs at least three times.
func repsFor(w workload, o options) int {
	if o.reps > 0 {
		return o.reps
	}
	n := max(1, int(math.Round(float64(w.Reps)*o.seconds/10)))
	if o.selfcheck {
		n = max(n, 3)
	}
	return n
}

// runWorkload measures one workload and prints its metrics.
func (r *runner) runWorkload(w workload, want expectation, o options, stdout io.Writer) result {
	res := result{Metrics: map[string]metricValue{}}
	if o.trace != "1" {
		res.merge("", r.endToEnd(w, want, repsFor(w, o), stdout))
	}
	if o.trace != "0" {
		res.merge("", r.perLayer(w, want, o.traceOut, stdout))
	}
	return res
}

// failures prints and counts the failed runs among samples.
func (r *runner) failures(w workload, kind string, samples ...*sample) int {
	n := 0
	for _, s := range samples {
		if s.Err != "" {
			fmt.Fprintf(r.stderr, "bench: %s: %s run failed: %s\n", w.Name, kind, s.Err)
			n++
		}
	}
	return n
}

// endToEnd runs a workload's untraced repetitions.
func (r *runner) endToEnd(w workload, want expectation, reps int, stdout io.Writer) result {
	sp := spec{Workload: w, Expect: want}
	samples := make([]*sample, reps)
	for i := range samples {
		samples[i] = r.child(kindRun, sp)
	}
	res := result{Attempted: reps, Failed: r.failures(w, kindRun, samples...), Metrics: map[string]metricValue{}}
	// What a run computes must not depend on the repetition: the counts
	// are pinned, and at one worker so are the candidates evaluated, the
	// patterns learnt and the solution set.
	if w.Workers == 1 && res.Failed == 0 {
		computed := func(s *sample) string {
			return fmt.Sprintf("evaluated %d, patterns %d, solutions:\n%s", s.Evaluated, s.Patterns, s.Solutions)
		}
		res.computed = computed(samples[0])
		for _, s := range samples[1:] {
			if c := computed(s); c != res.computed {
				fmt.Fprintf(r.stderr, "bench: %s: repetitions disagree:\n%s\n%s\n", w.Name, res.computed, c)
				res.Failed++
				break
			}
		}
	}
	rows := make([]map[string]float64, reps)
	for i, s := range samples {
		rows[i] = endToEndOf(s)
	}
	if reps == 1 {
		fmt.Fprintf(stdout, "\n%s: end to end, one run (n=1: no median here, the driver's repeated invocations supply it)\n", w.Name)
	} else {
		fmt.Fprintf(stdout, "\n%s: end to end, median of %d runs\n", w.Name, reps)
	}
	for _, d := range endToEnd {
		col := make([]float64, reps)
		for i, row := range rows {
			col[i] = row[d.Name]
		}
		sort.Float64s(col)
		med := median(col)
		fmt.Fprintf(stdout, "  %-14s %14.6g %-5s (min %.6g, max %.6g, n=%d; %s is better, bound %g%%)\n",
			d.Name, med, d.Unit, col[0], col[reps-1], reps, d.Better, d.Bound*100)
		res.Metrics[d.Name] = metricValue{med, d.Unit}
	}
	fmt.Fprintf(stdout, "  %-14s %14d count of %d\n", "failed_runs", res.Failed, reps)
	return res
}

// perLayer runs a workload's traced set: its untraced run, its sequential
// twin's, the traced run and the telemetry run, each a process of its own.
func (r *runner) perLayer(w workload, want expectation, traceOut string, stdout io.Writer) result {
	set := tracedSet{run: r.child(kindRun, spec{Workload: w, Expect: want})}
	all := []*sample{set.run}
	if w.SeqTwin != "" {
		twin, _ := findWorkload(w.SeqTwin)
		set.twin = r.child(kindRun, spec{Workload: twin})
		all = append(all, set.twin)
	}
	set.trace = r.child(kindTrace, spec{Workload: w, Expect: want, TraceOut: traceOut})
	all = append(all, set.trace)
	if !w.Synth {
		set.obs = r.child(kindObs, spec{Workload: w, Expect: want})
		all = append(all, set.obs)
	}
	res := result{Attempted: len(all), Failed: r.failures(w, "traced-set", all...), Metrics: map[string]metricValue{}}
	vals := perLayerValues(w, set)
	fmt.Fprintf(stdout, "\n%s: per layer, one traced set of %d runs\n", w.Name, len(all))
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "  %-28s %14.6g %-5s (%s is better)\n", d.Name, vals[d.Name], d.Unit, d.Better)
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return res
}

// selfcheck runs the end-to-end suite twice and fails unless every metric
// of the two sets agrees within its own bound.
func selfcheck(r *runner, todo []workload, expected map[string]expectation, o options, stdout io.Writer) result {
	total := result{Metrics: map[string]metricValue{}}
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range todo {
			res := r.endToEnd(w, expected[w.Name], repsFor(w, o), stdout)
			sets[i][w.Name] = res
			total.Attempted += res.Attempted
			total.Failed += res.Failed
		}
	}
	fmt.Fprintln(stdout, "\nselfcheck: spread between two sets of runs of the same code")
	for _, w := range todo {
		if a, b := sets[0][w.Name].computed, sets[1][w.Name].computed; a != b {
			fmt.Fprintf(stdout, "  %-18s the two sets computed different results:\n%s\n%s\n", w.Name, a, b)
			total.Failed++
		}
		for _, d := range endToEnd {
			a, b := sets[0][w.Name].Metrics[d.Name].Value, sets[1][w.Name].Metrics[d.Name].Value
			spread := relSpread(a, b)
			verdict := "ok"
			if spread > d.Bound {
				verdict = "EXCEEDS BOUND"
				total.Failed++
			}
			fmt.Fprintf(stdout, "  %-18s %-14s %14.6g %14.6g  spread %6.2f%%  bound %g%%  %s\n",
				w.Name, d.Name, a, b, spread*100, d.Bound*100, verdict)
			total.Metrics[w.Name+":"+d.Name+":spread"] = metricValue{spread, "ratio"}
		}
	}
	return total
}

// relSpread is |a-b| as a share of the smaller of the two.
func relSpread(a, b float64) float64 {
	if a == b {
		return 0
	}
	lo := math.Min(math.Abs(a), math.Abs(b))
	if lo == 0 {
		return 1
	}
	return math.Abs(a-b) / lo
}
