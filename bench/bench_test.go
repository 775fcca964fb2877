package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"verc3/internal/mc"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
)

// The parent spawns os.Executable() with -child; under go test that is the
// test binary, so it has to answer the same way the bench binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// The tests run the benchmark's own code paths on scaled-down inputs: the
// complete protocol with 3 caches (1,097 reduced states) and the msi-small
// sketch (1,556 checks), which keep tier-1 fast.
var (
	tinySym   = workload{Name: "tiny-sym", Variant: "complete", Caches: 3, Symmetry: true, Workers: 1, Reps: 1}
	tinyRaw   = workload{Name: "tiny-raw", Variant: "complete", Caches: 3, Workers: 1, Reps: 1}
	tinyPar   = workload{Name: "tiny-par2", Variant: "complete", Caches: 3, Workers: 2, Reps: 1, SeqTwin: "tiny-raw"}
	tinySpill = workload{Name: "tiny-spill", Variant: "complete", Caches: 3, Workers: 1, SpillMem: 4 << 10, Reps: 1}
	tinySynth = workload{Name: "tiny-synth", Synth: true, Variant: "small", Caches: 2, Symmetry: true, Workers: 1, Reps: 2}
	tinySynP  = workload{Name: "tiny-synth-par2", Synth: true, Variant: "small", Caches: 2, Symmetry: true, Workers: 2, Reps: 1, SeqTwin: "tiny-synth"}
)

func check(t *testing.T, w workload) *mc.Result {
	t.Helper()
	env, err := w.setUp(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	res, err := mc.Check(env.sys, env.mcOpt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != mc.Success {
		t.Fatalf("%s: verdict %s", w.Name, res.Verdict)
	}
	return res
}

func TestWalkLandsOnCheckCounts(t *testing.T) {
	unreduced := check(t, tinyRaw).Stats.VisitedStates
	for _, w := range []workload{tinySym, tinyRaw, tinyPar, tinySpill} {
		want := check(t, w).Stats
		env, err := w.setUp(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		orbitSum := 0
		canon := symmetry.NewCanonicalizer(w.Caches)
		got, err := walk(w, env, tr, func(s ts.State) { orbitSum += canon.Orbit(s) })
		env.close()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got.States != want.VisitedStates || got.Transitions != want.FiredTransitions || got.Depth != want.MaxDepth {
			t.Errorf("%s: walk landed on %d/%d/%d, mc.Check on %d/%d/%d", w.Name,
				got.States, got.Transitions, got.Depth, want.VisitedStates, want.FiredTransitions, want.MaxDepth)
		}
		if w.Symmetry {
			if orbitSum != unreduced {
				t.Errorf("%s: orbit sum %d, unreduced states %d", w.Name, orbitSum, unreduced)
			}
			if tr.calls[clsKey] != 0 || tr.calls[clsCanon] != tr.calls[clsInsert] {
				t.Errorf("%s: %d key calls, %d canon calls, %d inserts", w.Name, tr.calls[clsKey], tr.calls[clsCanon], tr.calls[clsInsert])
			}
		} else if tr.calls[clsCanon] != 0 {
			t.Errorf("%s: %d canonicalizer calls with symmetry off", w.Name, tr.calls[clsCanon])
		}
		if w.SpillMem > 0 && (tr.calls[clsLevelMerge] == 0 || got.Store.SpilledBytes == 0) {
			t.Errorf("%s: %d level merges, %d bytes spilled: the spill tier never engaged", w.Name, tr.calls[clsLevelMerge], got.Store.SpilledBytes)
		}
		if int(tr.calls[clsFire]) != got.Transitions || int(tr.calls[clsEnumerate]) != got.States {
			t.Errorf("%s: %d fire spans for %d transitions, %d enumerate spans for %d states", w.Name,
				tr.calls[clsFire], got.Transitions, tr.calls[clsEnumerate], got.States)
		}
	}
}

// tracedSetOf runs a workload's traced set in process.
func tracedSetOf(t *testing.T, w workload, twin *workload) tracedSet {
	t.Helper()
	child := func(kind string, w workload) *sample {
		s := runChild(kind, spec{Workload: w, TmpRoot: t.TempDir()})
		if s.Err != "" {
			t.Fatalf("%s %s: %s", w.Name, kind, s.Err)
		}
		return &s
	}
	set := tracedSet{run: child(kindRun, w), trace: child(kindTrace, w)}
	if twin != nil {
		set.twin = child(kindRun, *twin)
	}
	if !w.Synth {
		set.obs = child(kindObs, w)
	}
	return set
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestEveryDeclaredMetricIsEmittedOnce(t *testing.T) {
	for _, c := range []struct {
		w    workload
		twin *workload
	}{{tinySym, nil}, {tinyPar, &tinyRaw}, {tinySpill, nil}, {tinySynth, nil}, {tinySynP, &tinySynth}} {
		set := tracedSetOf(t, c.w, c.twin)
		got := perLayerValues(c.w, set)
		if len(got) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", c.w.Name, len(got), len(perLayer))
		}
		for _, d := range perLayer {
			v, ok := got[d.Name]
			if !ok || !finite(v) {
				t.Errorf("%s: per-layer metric %s = %v (emitted %v)", c.w.Name, d.Name, v, ok)
			}
		}
		e2e := endToEndOf(set.run)
		if len(e2e) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", c.w.Name, len(e2e), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := e2e[d.Name]; !ok || !finite(v) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (emitted %v), want a positive number", c.w.Name, d.Name, v, ok)
			}
		}

		if c.w.Synth {
			if n := got["core.dispatch.count"]; n != got["core.evaluated"] || n == 0 {
				t.Errorf("%s: %v dispatch spans for %v evaluated candidates", c.w.Name, n, got["core.evaluated"])
			}
			if cov := got["core.span_coverage"]; c.w.Workers == 1 && cov < 0.98 {
				t.Errorf("%s: spans cover %.3f of the traced wall", c.w.Name, cov)
			}
		} else {
			if got["symmetry.canon.calls"] != 0 && !c.w.Symmetry {
				t.Errorf("%s: canonicalizer calls with symmetry off", c.w.Name)
			}
			var busy float64
			for _, cl := range walkClasses {
				busy += got[classNames[cl]+".busy_s"]
			}
			if diff := busy + got["mc.residual_s"] - set.run.WallS; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s: layer busy + residual misses the untraced wall by %g s", c.w.Name, diff)
			}
		}
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q, table has %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside [0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if _, err := loadExpected(); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 4, 7, 2, 9, 3, 8, 5, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{nil, [3]float64{}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
		if m := median(c.in); m != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.in, m, c.want[1])
		}
	}
	if got := percentileUS([]int64{4000, 1000, 3000, 2000}, 0.5); got != 2 {
		t.Errorf("percentileUS p50 = %v, want 2", got)
	}
	if a, b := relSpread(100, 110), relSpread(110, 100); a != b || a < 0.0999 || a > 0.1001 {
		t.Errorf("relSpread(100,110) = %v, %v, want 0.1 both ways", a, b)
	}
}

// swapTable points the parent at the scaled-down table for one test.
func swapTable(t *testing.T, ws []workload, expect map[string]expectation) {
	t.Helper()
	oldW, oldE := workloads, expectedJSON
	raw, err := json.Marshal(expect)
	if err != nil {
		t.Fatal(err)
	}
	workloads, expectedJSON = ws, raw
	t.Cleanup(func() { workloads, expectedJSON = oldW, oldE })
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

func TestDriverFormPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	right := map[string]expectation{
		"tiny-sym":   {Verdict: "success", States: 1097, OrbitSum: check(t, tinyRaw).Stats.VisitedStates},
		"tiny-synth": {Holes: 8, SolutionCount: 4},
	}
	swapTable(t, []workload{tinySym, tinySynth}, right)
	for _, c := range []struct {
		workload, trace string
		defs            []metricDef
		attempted       int
	}{
		{"tiny-sym", "0", endToEnd, 1}, {"tiny-sym", "1", perLayer, 3},
		{"tiny-synth", "0", endToEnd, 2}, {"tiny-synth", "1", perLayer, 2},
	} {
		var out bytes.Buffer
		code := realMain([]string{"--workload", c.workload, "--seed", "7", "--seconds", "10", "--trace", c.trace}, &out, io.Discard)
		r := lastLine(t, out.String())
		if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted != c.attempted {
			t.Errorf("%s -trace %s: exit %d, %+v", c.workload, c.trace, code, r)
		}
		if len(r.Metrics) != len(c.defs) {
			t.Errorf("%s -trace %s: %d metrics printed, %d declared", c.workload, c.trace, len(r.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit || !finite(v.Value) {
				t.Errorf("%s -trace %s: metric %s = %+v (printed %v)", c.workload, c.trace, d.Name, v, ok)
			}
		}
	}
	if left, _ := filepath.Glob(tmpPattern + "*"); len(left) > 0 {
		t.Errorf("left behind: %v", left)
	}
}

func TestWrongExpectationIsAFailedRunAndANonZeroExit(t *testing.T) {
	wrong := map[string]expectation{"tiny-sym": {Verdict: "success", States: 1098}}
	swapTable(t, []workload{tinySym}, wrong)
	var out, errs bytes.Buffer
	code := realMain([]string{"-workload", "tiny-sym", "-trace", "0"}, &out, &errs)
	r := lastLine(t, out.String())
	if code == 0 || r.Correct || r.Failed != 1 || r.Attempted != 1 {
		t.Errorf("exit %d, %+v; want a non-zero exit and failed=1 of 1", code, r)
	}
	if !strings.Contains(errs.String(), "states 1097, want 1098") {
		t.Errorf("the missed expectation is not reported: %s", errs.String())
	}
}

func TestRepetitionsScaleWithSeconds(t *testing.T) {
	w := workload{Reps: 3}
	for seconds, want := range map[float64]int{10: 3, 20: 6, 1: 1, 5: 2} {
		if got := repsFor(w, options{seconds: seconds}); got != want {
			t.Errorf("repsFor(%g s) = %d, want %d", seconds, got, want)
		}
	}
	if got := repsFor(w, options{seconds: 10, reps: 7}); got != 7 {
		t.Errorf("-reps 7 gives %d", got)
	}
	if got := repsFor(workload{Reps: 1}, options{seconds: 10, selfcheck: true}); got != 3 {
		t.Errorf("-selfcheck runs a one-repetition workload %d times, want 3", got)
	}
}

func TestChildEnvPinsTheRuntime(t *testing.T) {
	got := childEnv([]string{"PATH=/bin", "GOMAXPROCS=8", "GOGC=off", "GOMEMLIMIT=1GiB", "HOME=/root"})
	want := []string{"PATH=/bin", "HOME=/root", "GOMAXPROCS=2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("childEnv = %v, want %v", got, want)
	}
}

func TestSpansAreWrittenOut(t *testing.T) {
	path := t.TempDir() + "/spans.jsonl"
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{ctx: context.Background(), self: self, tmpRoot: t.TempDir(), stderr: io.Discard}
	start := time.Now()
	s := r.child(kindTrace, spec{Workload: tinySynth, TraceOut: path})
	if s.Err != "" {
		t.Fatal(s.Err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if want := 2*int(s.Evaluated) + 1; len(lines) != want {
		t.Errorf("%d spans written, want %d (select+dispatch per check, one reverify)", len(lines), want)
	}
	if !strings.Contains(lines[len(lines)-1], `"core.reverify"`) {
		t.Errorf("last span is %s, want the reverify span", lines[len(lines)-1])
	}
	t.Logf("traced child took %v", time.Since(start))
}
