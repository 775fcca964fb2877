package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/visited"
)

// workload is one row of the closed workload table. The inputs are the
// paper's MSI protocol, so every field names a fixed model or a fixed
// checker configuration; nothing here is drawn from the seed.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Synth selects core.Synthesize (on a sketch variant) over mc.Check
	// (on the complete protocol).
	Synth    bool   `json:"synth,omitempty"`
	Variant  string `json:"variant"` // complete | small | large
	Caches   int    `json:"caches"`
	Symmetry bool   `json:"symmetry,omitempty"`
	// Workers is mc.Options.Workers for a verification and
	// core.Config.Workers for a synthesis; fixed, never GOMAXPROCS.
	Workers int `json:"workers"`
	// SpillMem, when positive, selects the spill backend with that in-RAM
	// tier budget and a fresh spill directory per run.
	SpillMem int64 `json:"spill_mem,omitempty"`
	// Reps is the repetition count of an untraced run at the nominal
	// -seconds 10; other -seconds values scale it, with a floor of one.
	Reps int `json:"reps"`
	// SeqTwin names the sequential workload a parallel one is priced
	// against (mc.par_speedup, core.par_speedup).
	SeqTwin string `json:"seq_twin,omitempty"`
}

const spillMem = 4 << 20

// workloads is the benchmark. Repetitions are trimmed to the driver's time
// cap from the top: the models keep their paper-scale size, the big ones
// run once per invocation and the driver's ten invocations supply the
// median.
var workloads = []workload{
	{Name: "verify-sym", Variant: "complete", Caches: 5, Symmetry: true, Workers: 1, Reps: 5,
		Why: "120 permutations per offered successor: symmetry does ~97% of the work, visited and frontier almost none"},
	{Name: "verify-raw", Variant: "complete", Caches: 5, Workers: 1, Reps: 1,
		Why: "1.93M unreduced states bypass symmetry: enumerate, fire, key, flat insert and GC share the time while the table grows"},
	{Name: "verify-raw-par2", Variant: "complete", Caches: 5, Workers: 2, Reps: 1, SeqTwin: "verify-raw",
		Why: "the same layers through pchecker, the striped visited set and level merges: prices the second driver"},
	{Name: "verify-spill", Variant: "complete", Caches: 5, Workers: 1, SpillMem: spillMem, Reps: 1,
		Why: "a 4 MiB spill tier: sorted-run writes and per-level merges beside probe reads; a merge gain shows here, not on verify-raw"},
	{Name: "synth-large", Synth: true, Variant: "large", Caches: 2, Symmetry: true, Workers: 1, Reps: 3,
		Why: "Table I headline row: 50k checks of ~75 states, so per-check fixed cost, pattern matching and per-dispatch garbage dominate"},
	{Name: "synth-large-par2", Synth: true, Variant: "large", Caches: 2, Symmetry: true, Workers: 2, Reps: 5, SeqTwin: "synth-large",
		Why: "Table I multi-thread row at this machine's width: dispatch, pattern table and pools under concurrency"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// expectation pins what a workload must produce. Zero fields are not
// checked, so the tests' scaled-down workloads pin only what they know.
type expectation struct {
	Verdict     string `json:"verdict,omitempty"`
	States      int    `json:"states,omitempty"`
	Transitions int    `json:"transitions,omitempty"`
	Depth       int    `json:"depth,omitempty"`
	// OrbitSum is the symmetric walk's oracle: the summed orbit sizes of
	// its canonical states, which must equal the unreduced state count —
	// a number that does not come from the checker under test.
	OrbitSum int `json:"orbit_sum,omitempty"`

	Holes      int    `json:"holes,omitempty"`
	Candidates uint64 `json:"candidates,omitempty"`
	// Solutions lists every solution by hole name; SolutionCount alone is
	// checked when it is empty.
	SolutionCount int                 `json:"solution_count,omitempty"`
	Solutions     []map[string]string `json:"solutions,omitempty"`
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected parses the hand-pinned expectations and checks they cover
// exactly the workload table.
func loadExpected() (map[string]expectation, error) {
	var m map[string]expectation
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	for _, w := range workloads {
		if _, ok := m[w.Name]; !ok {
			return nil, fmt.Errorf("expected.json: no entry for workload %q", w.Name)
		}
	}
	if len(m) != len(workloads) {
		return nil, fmt.Errorf("expected.json: %d entries for %d workloads", len(m), len(workloads))
	}
	return m, nil
}

// spec is what a parent hands a child: the workload, its expectation, and
// where temporary files go.
type spec struct {
	Workload workload    `json:"workload"`
	Expect   expectation `json:"expect"`
	TmpRoot  string      `json:"tmp_root"`
	TraceOut string      `json:"trace_out,omitempty"`
}

// runEnv is everything a run needs before its timed region.
type runEnv struct {
	sys      *msi.System
	mcOpt    mc.Options  // verification
	cfg      core.Config // synthesis
	spillDir string
}

var variants = map[string]msi.Variant{"complete": msi.Complete, "small": msi.Small, "large": msi.Large}

// setUp builds the model, the options and, for the spill backend, a fresh
// spill directory. It is the work setup_s times.
func (w workload) setUp(tmpRoot string) (*runEnv, error) {
	v, ok := variants[w.Variant]
	if !ok {
		return nil, fmt.Errorf("workload %s: unknown variant %q", w.Name, w.Variant)
	}
	env := &runEnv{sys: msi.New(msi.Config{Caches: w.Caches, Variant: v})}
	opt := mc.Options{Symmetry: w.Symmetry}
	if w.SpillMem > 0 {
		dir, err := os.MkdirTemp(tmpRoot, "spill-")
		if err != nil {
			return nil, err
		}
		env.spillDir = dir
		opt.Visited, opt.SpillMem, opt.SpillDir = visited.Spill, w.SpillMem, dir
	}
	if w.Synth {
		env.cfg = core.Config{Mode: core.ModePrune, PruneStyle: core.PruneFullVector, Workers: w.Workers, MCWorkers: 1, MC: opt}
	} else {
		opt.Workers = w.Workers
		env.mcOpt = opt
	}
	return env, nil
}

// close removes the run's spill directory.
func (e *runEnv) close() {
	if e.spillDir != "" {
		os.RemoveAll(e.spillDir)
	}
}
