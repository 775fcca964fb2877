package verc3_test

// The benchmark harness: one benchmark per row of the paper's Table I, one
// for the Figure 2 worked example, and ablation benchmarks for the design
// choices DESIGN.md calls out (pruning pattern style, symmetry reduction,
// search order).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Notes on scale: benchmarks default to 2 caches so the whole suite runs in
// minutes. The MSI-large naive row evaluates 102,102,525 candidates when run
// to completion (the paper's C++ took 8.8 hours); the benchmark samples
// -table1.naive.max dispatches and reports per-candidate cost, the same
// extrapolation verc3-synth -mode naive -max-eval N prints. Custom metrics:
// evaluated (model-checker dispatches), patterns (pruning patterns),
// solutions, and states/op.

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"verc3/internal/core"
	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/toy"
	"verc3/internal/ts"
	"verc3/internal/visited"
	"verc3/internal/zoo"
)

var (
	benchCaches   = flag.Int("table1.caches", 2, "cache count for Table I benchmarks")
	benchWorkers  = flag.Int("table1.workers", 4, "worker count for parallel Table I rows")
	benchNaiveMax = flag.Int64("table1.naive.max", 20000, "dispatch cap for the MSI-large naive row (0 = full)")
)

// synthBench runs one synthesis configuration per iteration and reports the
// paper's Table I columns as metrics.
func synthBench(b *testing.B, variant msi.Variant, cfg core.Config) {
	b.Helper()
	var last *core.Result
	for i := 0; i < b.N; i++ {
		sys := msi.New(msi.Config{Caches: *benchCaches, Variant: variant})
		res, err := core.Synthesize(sys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Stats.Evaluated), "evaluated")
	b.ReportMetric(float64(last.Stats.Patterns), "patterns")
	b.ReportMetric(float64(len(last.Solutions)), "solutions")
	b.ReportMetric(float64(last.Stats.TotalVisitedStates), "states")
}

// --- Table I rows (experiments E1–E6) ---

// BenchmarkTable1SmallNaive is row 1: MSI-small, 1 thread, no pruning
// (231,525 candidates, all evaluated). Paper: 64.5s, 4 solutions.
func BenchmarkTable1SmallNaive(b *testing.B) {
	if testing.Short() {
		b.Skip("full naive enumeration; run without -short")
	}
	synthBench(b, msi.Small, core.Config{Mode: core.ModeNaive, MC: mc.Options{Symmetry: true}})
}

// BenchmarkTable1SmallPrune1T is row 2: MSI-small, 1 thread, pruning.
// Paper: 1,179,648 candidates, 743 patterns, 855 evaluated, 1.8s.
func BenchmarkTable1SmallPrune1T(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, MC: mc.Options{Symmetry: true}})
}

// BenchmarkTable1SmallPrune4T is row 3: MSI-small, 4 threads, pruning.
// Paper: 825 evaluated, 1.2s. (Speedup requires >1 CPU; see EXPERIMENTS.md.)
func BenchmarkTable1SmallPrune4T(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, Workers: *benchWorkers, MC: mc.Options{Symmetry: true}})
}

// BenchmarkTable1LargeNaive is row 4: MSI-large, 1 thread, no pruning.
// Paper: 102,102,525 candidates, 31,573.5s. Sampled here (see -table1.naive.max);
// sec/op divided by `evaluated` gives per-candidate cost for extrapolation.
func BenchmarkTable1LargeNaive(b *testing.B) {
	if testing.Short() {
		b.Skip("naive enumeration sample; run without -short")
	}
	synthBench(b, msi.Large, core.Config{Mode: core.ModeNaive, MC: mc.Options{Symmetry: true}, MaxEvaluations: *benchNaiveMax})
}

// BenchmarkTable1LargePrune1T is row 5: MSI-large, 1 thread, pruning.
// Paper: 1,207,959,552 candidates, 34,928 patterns, 170,108 evaluated, 739.7s.
func BenchmarkTable1LargePrune1T(b *testing.B) {
	if testing.Short() {
		b.Skip("~40s per iteration; run without -short")
	}
	synthBench(b, msi.Large, core.Config{Mode: core.ModePrune, MC: mc.Options{Symmetry: true}})
}

// BenchmarkTable1LargePrune4T is row 6: MSI-large, 4 threads, pruning.
// Paper: 170,087 evaluated, 295.7s.
func BenchmarkTable1LargePrune4T(b *testing.B) {
	if testing.Short() {
		b.Skip("~40s per iteration; run without -short")
	}
	synthBench(b, msi.Large, core.Config{Mode: core.ModePrune, Workers: *benchWorkers, MC: mc.Options{Symmetry: true}})
}

// --- Figure 2 (experiment E7) ---

// BenchmarkFig2Prune reproduces the worked example: 10 candidates evaluated.
func BenchmarkFig2Prune(b *testing.B) {
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(toy.Figure2(), core.Config{Mode: core.ModePrune})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Stats.Evaluated), "evaluated")
}

// BenchmarkFig2Naive is the 24-candidate (nominal) baseline.
func BenchmarkFig2Naive(b *testing.B) {
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(toy.Figure2(), core.Config{Mode: core.ModeNaive})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Stats.Evaluated), "evaluated")
}

// --- Ablations (experiment E9) ---

// BenchmarkAblationPruneFullVector vs BenchmarkAblationPruneTraceGeneralized:
// the paper's full-vector patterns against our Ct-generalized extension.
func BenchmarkAblationPruneFullVector(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, PruneStyle: core.PruneFullVector, MC: mc.Options{Symmetry: true}})
}

// BenchmarkAblationPruneTraceGeneralized binds only the holes on the error
// trace, pruning strictly more candidates per pattern.
func BenchmarkAblationPruneTraceGeneralized(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, PruneStyle: core.PruneTraceGeneralized, MC: mc.Options{Symmetry: true}})
}

// BenchmarkAblationSymmetryOn/Off: scalarset reduction inside the synthesis
// loop (§II argues explicit-state synthesis makes this easy).
func BenchmarkAblationSymmetryOn(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, MC: mc.Options{Symmetry: true}})
}

// BenchmarkAblationSymmetryOff disables canonicalization.
func BenchmarkAblationSymmetryOff(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, MC: mc.Options{Symmetry: false}})
}

// BenchmarkAblationSearchBFS/DFS: BFS yields minimal traces (maximally
// general patterns); DFS is the ablation.
func BenchmarkAblationSearchBFS(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, MC: mc.Options{Symmetry: true, Order: mc.BFS}})
}

// BenchmarkAblationSearchDFS uses depth-first exploration in the embedded
// model checker. With full-vector patterns the whole enumerated prefix is
// bound regardless of which trace was found, so DFS costs little here.
func BenchmarkAblationSearchDFS(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, MC: mc.Options{Symmetry: true, Order: mc.DFS}})
}

// BenchmarkAblationSearchDFSTraceGen is where trace minimality actually
// matters: trace-generalized patterns bind exactly the holes on the found
// error trace, so DFS's longer traces yield less general patterns than the
// BFS numbers in BenchmarkAblationPruneTraceGeneralized.
func BenchmarkAblationSearchDFSTraceGen(b *testing.B) {
	synthBench(b, msi.Small, core.Config{Mode: core.ModePrune, PruneStyle: core.PruneTraceGeneralized, MC: mc.Options{Symmetry: true, Order: mc.DFS}})
}

// --- Model-checker microbenchmarks ---

// BenchmarkMCCompleteMSI measures raw verification throughput on the
// complete protocol (the synthesis inner loop's unit of work).
func BenchmarkMCCompleteMSI(b *testing.B) {
	sys := msi.New(msi.Config{Caches: *benchCaches, Variant: msi.Complete})
	var states int
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{Symmetry: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.VisitedStates
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkMCCompleteMSINoSymmetry is the unreduced baseline.
func BenchmarkMCCompleteMSINoSymmetry(b *testing.B) {
	sys := msi.New(msi.Config{Caches: *benchCaches, Variant: msi.Complete})
	var states int
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.VisitedStates
	}
	b.ReportMetric(float64(states), "states")
}

// --- Exploration-driver ablation (experiment E10) ---
//
// Sequential vs parallel state-space exploration on the complete MSI
// protocol, the model checker's unit of work at verification scale. The
// parallel rows need GOMAXPROCS > 1 to show wall-clock speedup; on one
// core they measure the (small) coordination overhead of the sharded
// visited set and the level-synchronous frontier.

// parallelWorkers returns the worker count for the parallel benchmark
// rows: every available core, but at least 2 so the parallel driver is
// actually selected (Workers <= 1 falls back to sequential) and a
// single-core run measures its coordination overhead rather than silently
// re-running the sequential baseline.
func parallelWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

// exploreBench model-checks the complete protocol once per iteration.
func exploreBench(b *testing.B, caches, workers int) {
	b.Helper()
	sys := msi.New(msi.Config{Caches: caches, Variant: msi.Complete})
	var states int
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{Symmetry: true, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != mc.Success {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		states = res.Stats.VisitedStates
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkExploreMSI3Sequential is the 3-cache baseline (1,097 states).
func BenchmarkExploreMSI3Sequential(b *testing.B) { exploreBench(b, 3, 1) }

// BenchmarkExploreMSI3Parallel uses every available core.
func BenchmarkExploreMSI3Parallel(b *testing.B) { exploreBench(b, 3, parallelWorkers()) }

// BenchmarkExploreMSI4Sequential is the largest MSI configuration the
// suite explores (4 caches, 5,440 canonical states, 24 permutations per
// canonicalization — heavy per-state work, the regime where intra-check
// parallelism pays).
func BenchmarkExploreMSI4Sequential(b *testing.B) {
	if testing.Short() {
		b.Skip("~2s per iteration; run without -short")
	}
	exploreBench(b, 4, 1)
}

// BenchmarkExploreMSI4Parallel is the headline sequential-vs-parallel
// comparison: on an N-core machine it should approach N× over
// BenchmarkExploreMSI4Sequential because canonicalization dominates and
// parallelizes embarrassingly.
func BenchmarkExploreMSI4Parallel(b *testing.B) {
	if testing.Short() {
		b.Skip("~2s per iteration; run without -short")
	}
	exploreBench(b, 4, parallelWorkers())
}

// --- Trace-optional memory ablation (experiment E11) ---
//
// The same complete-protocol exploration with the parent-linked trace
// store on versus off. With RecordTrace off the checker retains only the
// 8-byte fingerprint per state plus the transient frontier — no per-state
// node entries — which is the configuration every synthesis dispatch runs
// in. retainedB/state is the structural estimate from Result.Space;
// allocs/op (via -benchmem) shows the per-state trace-node allocation
// disappearing.

// traceBench explores the complete MSI protocol once per iteration with
// the given trace setting.
func traceBench(b *testing.B, record bool) {
	b.Helper()
	sys := msi.New(msi.Config{Caches: *benchCaches, Variant: msi.Complete})
	b.ReportAllocs()
	var last *mc.Result
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{Symmetry: true, RecordTrace: record})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != mc.Success {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		last = res
	}
	b.ReportMetric(float64(last.Space.BytesRetained)/float64(last.Space.States), "retainedB/state")
	b.ReportMetric(float64(last.Space.PeakFrontier), "peak-frontier")
	b.ReportMetric(float64(last.Space.TraceNodes), "trace-nodes")
}

// BenchmarkExploreMSITraceOn pays the O(states) trace store for replayable
// counterexamples.
func BenchmarkExploreMSITraceOn(b *testing.B) { traceBench(b, true) }

// BenchmarkExploreMSITraceOff is the fingerprint-only regime (the
// synthesis default): trace-nodes must report 0.
func BenchmarkExploreMSITraceOff(b *testing.B) { traceBench(b, false) }

// --- Visited-set keying: string keys vs 64-bit fingerprints ---
//
// The seed checker deduplicated states in a map[string]struct{}, retaining
// every canonical key; both drivers now store only statespace.Fingerprint.
// These benchmarks isolate that allocation win on MSI-shaped keys.

// benchKeys synthesizes canonical-key-shaped strings (the MSI key layout:
// per-cache controller state plus directory and network contents).
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("c0:%d/acks%d|c1:%d|c2:%d|dir:{o=%d s=%03b}|net=[Data@%d,Inv@%d]",
			i%7, i%3, (i/7)%7, (i/49)%7, i%4, i%8, i%11, i%13)
	}
	return keys
}

// BenchmarkVisitedKeyString is the seed scheme: the map retains every key
// string (one allocation per state, plus the string bytes held live for
// the whole exploration).
func BenchmarkVisitedKeyString(b *testing.B) {
	keys := benchKeys(1 << 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visited := make(map[string]struct{}, 1024)
		for _, k := range keys {
			// Simulate the checker receiving a freshly built canonical key.
			visited[string(append([]byte(nil), k...))] = struct{}{}
		}
	}
}

// BenchmarkVisitedKeyFingerprint is the current scheme shared by both
// exploration drivers: hash, store 8 bytes, drop the key.
func BenchmarkVisitedKeyFingerprint(b *testing.B) {
	keys := benchKeys(1 << 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visited := make(map[statespace.Fingerprint]struct{}, 1024)
		for _, k := range keys {
			visited[statespace.OfBytes(append([]byte(nil), k...))] = struct{}{}
		}
	}
}

// --- Visited-set backend ablation (experiments E12, E13) ---
//
// The storage layer (internal/visited) on the zoo's stress entry: the
// complete 4-cache MSI protocol, unreduced (105,752 states) so the visited
// set rather than canonicalization dominates. visitedB/state is each
// backend's measured in-RAM footprint per state; spill runs against a
// deliberately tiny 256 KiB in-RAM tier — well below the ~846 KiB of
// fingerprints — so most of the set lives in sorted run files
// (spilledB/state) and the rows price bounded RAM against the flat table
// (E13). The CI workflow uploads all BenchmarkVisited* rows in the
// benchstat artifact.

// visitedBench explores the stress entry once per iteration on the given
// backend and driver.
func visitedBench(b *testing.B, kind visited.Kind, workers int) {
	b.Helper()
	sys, err := zoo.Get("msi-complete-4", zoo.Params{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var last *mc.Result
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{
			Workers:  workers,
			Visited:  kind,
			SpillMem: 256 << 10,
			SpillDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != mc.Success {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		last = res
	}
	b.ReportMetric(float64(last.Space.States), "states")
	b.ReportMetric(float64(last.Space.VisitedBytes)/float64(last.Space.States), "visitedB/state")
	if last.Space.SpilledBytes > 0 {
		b.ReportMetric(float64(last.Space.SpilledBytes)/float64(last.Space.States), "spilledB/state")
	}
}

func BenchmarkVisitedFlat(b *testing.B)  { visitedBench(b, visited.Flat, 1) }
func BenchmarkVisitedSpill(b *testing.B) { visitedBench(b, visited.Spill, 1) }

func BenchmarkVisitedFlatParallel(b *testing.B)  { visitedBench(b, visited.Flat, parallelWorkers()) }
func BenchmarkVisitedSpillParallel(b *testing.B) { visitedBench(b, visited.Spill, parallelWorkers()) }

// --- Canonical fingerprinting (experiment E14) ---
//
// The keying pipeline in isolation and end to end: formatted Key() strings
// converted and hashed with OfBytes (the pre-E14 scheme) against
// ts.KeyAppender binary encodings hashed straight off a reusable buffer.
// BenchmarkCanonicalize* additionally covers the symmetry canonicalizer:
// its scratch state (one pooled permuted clone + two key buffers instead
// of a deep clone and a string per permutation) keeps
// BenchmarkCanonicalize at 0 allocs/op, and its tie-class
// enumeration (E19) makes the cost of a call follow the state's ties, not
// N! — the perms/op column. All rows land in the CI benchstat artifact via
// -benchmem.

// fingerprintBenchState builds a mid-transaction 4-cache MSI state with
// in-flight messages — representative per-state keying work.
func fingerprintBenchState() *msi.State {
	return &msi.State{
		Caches: []msi.Cache{
			{St: msi.CacheM, Data: 1},
			{St: msi.CacheISD},
			{St: msi.CacheS, Data: 1},
			{St: msi.CacheIMAD, Acks: 1},
		},
		Dir: msi.Dir{St: msi.DirMS, Owner: 0, Pending: 1, Sharers: 0b0100, Mem: 1},
		Net: msi.NewNet(
			msi.Msg{Kind: msi.MsgFwdGetS, Src: 4, Dst: 0, Req: 1, Val: 0},
			msi.Msg{Kind: msi.MsgData, Src: 4, Dst: 3, Req: -1, Cnt: 1, Val: 1},
			msi.Msg{Kind: msi.MsgInv, Src: 4, Dst: 2, Req: 3, Val: 0},
		),
		Ghost: 1,
	}
}

var fingerprintSink statespace.Fingerprint

// BenchmarkFingerprintString is the Key-string keying unit: format the key
// string, hash it, drop it (one-plus allocations per state).
func BenchmarkFingerprintString(b *testing.B) {
	s := fingerprintBenchState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink = statespace.OfBytes([]byte(s.Key()))
	}
}

// BenchmarkFingerprintAppend is the binary keying unit: append the
// encoding into a reused buffer, hash it in place (zero allocations).
func BenchmarkFingerprintAppend(b *testing.B) {
	s := fingerprintBenchState()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = s.AppendKey(buf[:0])
		fingerprintSink = statespace.OfBytes(buf)
	}
}

// BenchmarkCanonicalizeString canonicalizes over the 24 permutations of
// the 4-cache state through the string path: a deep clone plus a formatted
// key per non-identity permutation.
func BenchmarkCanonicalizeString(b *testing.B) {
	s := fingerprintBenchState()
	canon := symmetry.NewCanonicalizer(len(s.Caches))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink = statespace.OfBytes([]byte(canon.Key(s)))
	}
}

// permCounter counts the encodings one Fingerprint call compares: the state
// as it stands when the first arrangement is the identity, a permuted copy
// for every other arrangement.
type permCounter struct {
	*msi.State
	tried *int
}

func (c permCounter) AppendKey(dst []byte) []byte {
	*c.tried++
	return c.State.AppendKey(dst)
}

func (c permCounter) PermuteInto(dst ts.State, perm []int) {
	*c.tried++
	c.State.PermuteInto(dst, perm)
}

// BenchmarkCanonicalize is the scratch-state path at 4 and 5 caches, on
// the three shapes that bound a call's cost: all caches distinct (one
// arrangement — fingerprintBenchState at 4), some tied (2!·2!), and all
// tied in I (the worst case, still all N!). perms/op is the number of
// encodings compared per call; it is what the time per call follows, and
// its mean over a walk (3.75 at 5 caches, EXPERIMENTS.md E19) is what the
// verify-sym workload pays. The acceptance bar stays 0 allocs/op.
func BenchmarkCanonicalize(b *testing.B) {
	m, isd, sh, imad := msi.Cache{St: msi.CacheM, Data: 1}, msi.Cache{St: msi.CacheISD}, msi.Cache{St: msi.CacheS, Data: 1}, msi.Cache{St: msi.CacheIMAD, Acks: 1}
	for _, row := range []struct {
		name   string
		caches []msi.Cache
	}{
		{"distinct-4", []msi.Cache{m, isd, sh, imad}},
		{"tied-4", []msi.Cache{sh, {}, sh, {}}},
		{"all-tied-4", make([]msi.Cache, 4)},
		{"distinct-5", []msi.Cache{m, isd, sh, imad, {}}},
		{"tied-5", []msi.Cache{sh, {}, sh, isd, {}}},
		{"all-tied-5", make([]msi.Cache, 5)},
	} {
		b.Run(row.name, func(b *testing.B) {
			s := fingerprintBenchState()
			dir := int8(len(row.caches))
			s.Caches = row.caches
			s.Net = msi.NewNet(
				msi.Msg{Kind: msi.MsgFwdGetS, Src: dir, Dst: 0, Req: 1, Val: 0},
				msi.Msg{Kind: msi.MsgData, Src: dir, Dst: 3, Req: -1, Cnt: 1, Val: 1},
				msi.Msg{Kind: msi.MsgInv, Src: dir, Dst: 2, Req: 3, Val: 0},
			)
			canon := symmetry.NewCanonicalizer(len(s.Caches))
			tried := 0
			canon.Fingerprint(permCounter{s, &tried}) // also warms the pooled scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fingerprintSink = canon.Fingerprint(s)
			}
			b.ReportMetric(float64(tried), "perms/op")
		})
	}
}

// keyingBench explores the complete MSI protocol once per iteration under
// the given symmetry setting (the E14 end-to-end rows).
func keyingBench(b *testing.B, sym bool) {
	b.Helper()
	sys := msi.New(msi.Config{Caches: *benchCaches, Variant: msi.Complete})
	b.ReportAllocs()
	var last *mc.Result
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{Symmetry: sym})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != mc.Success {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		last = res
	}
	b.ReportMetric(float64(last.Space.States), "states")
}

func BenchmarkKeyingAppendSymOn(b *testing.B)  { keyingBench(b, true) }
func BenchmarkKeyingAppendSymOff(b *testing.B) { keyingBench(b, false) }

// BenchmarkSynthPeterson covers the second domain end to end.
func BenchmarkSynthPeterson(b *testing.B) {
	sys, err := zoo.Get("peterson-sketch", zoo.Params{})
	if err != nil {
		b.Fatal(err)
	}
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.Synthesize(sys, core.Config{Mode: core.ModePrune})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Stats.Evaluated), "evaluated")
}

// --- Successor lifecycle ablation (experiment E15) ---
//
// The pooled-clone recycling protocol (ts.Recycler and the state's
// CopyFrom) on the complete 3-cache MSI exploration, in the synthesis
// configuration (symmetry on, traceless, flat backend), with enumeration
// into rule records. Options.NoRecycle switches recycling off; allocs/op
// across the two rows is the ablation table in EXPERIMENTS.md E15. Both
// rows land in the CI benchstat artifact via -benchmem.

// lifecycleBench explores the complete 3-cache protocol once per iteration,
// with or without recycling.
func lifecycleBench(b *testing.B, noRecycle bool) {
	b.Helper()
	sys := msi.New(msi.Config{Caches: 3, Variant: msi.Complete})
	b.ReportAllocs()
	var last *mc.Result
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{Symmetry: true, NoRecycle: noRecycle})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != mc.Success {
			b.Fatalf("verdict = %v", res.Verdict)
		}
		last = res
	}
	b.ReportMetric(float64(last.Space.States), "states")
	if last.Space.PoolHits+last.Space.PoolMisses > 0 {
		b.ReportMetric(100*float64(last.Space.PoolHits)/
			float64(last.Space.PoolHits+last.Space.PoolMisses), "pool-hit-%")
	}
}

// BenchmarkLifecycleFull is the shipping configuration: recycling on.
func BenchmarkLifecycleFull(b *testing.B) { lifecycleBench(b, false) }

// BenchmarkLifecycleNoRecycle clones every successor fresh (the recycling
// ablation).
func BenchmarkLifecycleNoRecycle(b *testing.B) { lifecycleBench(b, true) }

// --- Liveness checking (experiment E16) ---
//
// The nested-DFS accepting-cycle search on top of the safety pass. The
// product space is states × monitor locations × fairness copies, so
// blue+red product states against VisitedStates prices the liveness
// premium directly. Token-ring is the passing row (every accepting seed's
// red search comes up empty); MSI is the failing row (no network fairness
// is declared, so the first accepting seed closes a lasso and the search
// stops early — expected verdict: failure). Both rows land in the CI
// benchstat artifact via -benchmem.

// livenessBench explores the system once per iteration with the liveness
// pass on and pins the expected verdict.
func livenessBench(b *testing.B, sys ts.System, want mc.Verdict) {
	b.Helper()
	b.ReportAllocs()
	var last *mc.Result
	for i := 0; i < b.N; i++ {
		res, err := mc.Check(sys, mc.Options{Symmetry: true, Liveness: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != want {
			b.Fatalf("verdict = %v, want %v", res.Verdict, want)
		}
		last = res
	}
	b.ReportMetric(float64(last.Stats.VisitedStates), "states")
	b.ReportMetric(float64(last.Space.LiveStates), "blue")
	b.ReportMetric(float64(last.Space.RedStates), "red")
}

// BenchmarkLivenessTokenRing runs the full search to success: N leads-to
// goals, each with N weak-fairness constraints (N+1 Choueka copies).
func BenchmarkLivenessTokenRing(b *testing.B) {
	sys, err := zoo.Get("token-ring", zoo.Params{})
	if err != nil {
		b.Fatal(err)
	}
	livenessBench(b, sys, mc.Success)
}

// BenchmarkLivenessMSI finds the true-positive starvation lasso in the
// complete protocol (a write stuck behind undelivered network messages).
func BenchmarkLivenessMSI(b *testing.B) {
	livenessBench(b, msi.New(msi.Config{Caches: *benchCaches, Variant: msi.Complete}), mc.Failure)
}
