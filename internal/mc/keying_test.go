package mc_test

// The keying pipeline against exact state identity: every worker count and
// symmetry setting must explore the same space, and the exactness oracle
// (internal/ts/tstest) must find that no two distinct states of any zoo
// entry or committed spec share the fingerprint the kernel keys them by.
// The CI workflow runs everything matching TestZooEquivalence as a
// dedicated job step, and TestZooAppendKeyConsistency in its "Exactness
// oracle" step.

import (
	"math"
	"path/filepath"
	"runtime/debug"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/spec"
	"verc3/internal/ts"
	"verc3/internal/ts/tstest"
	"verc3/internal/zoo"
)

// TestZooEquivalenceKeying is the invariance check for the keying pipeline
// across worker counts: for every registered system, 1 and 8 workers must report
// the same verdict and exploration statistics under each symmetry setting.
// Exact state identity is TestZooAppendKeyConsistency's reference.
func TestZooEquivalenceKeying(t *testing.T) {
	for _, name := range zoo.Names() {
		t.Run(name, func(t *testing.T) {
			type combo struct {
				workers  int
				symmetry bool
			}
			base := map[bool]*mc.Result{} // per symmetry setting
			for _, cb := range []combo{{1, true}, {8, true}, {1, false}, {8, false}} {
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				res, err := checkEnv(sys, mc.Options{
					Symmetry: cb.symmetry,
					Workers:  cb.workers,
				}, ts.NewEnv(wildcardChooser{}), nil)
				if err != nil {
					t.Fatalf("workers=%d symmetry=%v: %v", cb.workers, cb.symmetry, err)
				}
				if base[cb.symmetry] == nil {
					base[cb.symmetry] = res
					continue
				}
				want := base[cb.symmetry]
				if res.Verdict != want.Verdict {
					t.Errorf("workers=%d symmetry=%v: verdict %v, want %v",
						cb.workers, cb.symmetry, res.Verdict, want.Verdict)
				}
				if res.Stats != want.Stats {
					t.Errorf("workers=%d symmetry=%v: stats %+v, want %+v",
						cb.workers, cb.symmetry, res.Stats, want.Stats)
				}
			}
		})
	}
}

// TestZooAppendKeyConsistency runs the exactness oracle over every zoo
// entry (at 2 caches) and every committed spec, with symmetry off and on,
// under two candidates: every hole a wildcard, and every hole its first
// action (so sketches whose behaviour is entirely behind holes still reach
// a real population). The oracle re-explores each by exact identity and
// fails on any fingerprint shared by two identities, and — symmetry off,
// with tstest.Oracle.Keys — on any pair of states whose AppendKey and Key
// equalities disagree, which is what catches a field a hand-written encoder
// forgot. The oracle stops where the kernel's one-worker search stops, so
// on every run the kernel's state count and depth must equal the oracle's:
// the kernel counted exactly the distinct states there are.
func TestZooAppendKeyConsistency(t *testing.T) {
	systems := map[string]func() ts.System{}
	for _, name := range zoo.Names() {
		systems[name] = func() ts.System {
			sys, err := zoo.Get(name, zoo.Params{Caches: 2})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	for _, file := range []string{"mutex.json", "mutex-sketch.json", "tokenring.json"} {
		systems["spec/"+file] = func() ts.System {
			m, err := spec.LoadFile(filepath.Join("../../examples/specs", file))
			if err != nil {
				t.Fatal(err)
			}
			return m.System()
		}
	}
	for name, build := range systems {
		t.Run(name, func(t *testing.T) {
			for _, symmetry := range []bool{false, true} {
				oracle := tstest.New(t)
				oracle.Keys = true
				// A complete run that never consulted a hole under the
				// wildcard candidate explores the same space under any other,
				// so the first-action candidate runs only where it may differ.
				for _, chooser := range []ts.Chooser{wildcardChooser{}, firstActionChooser{}} {
					got := oracle.Explore(build(), ts.NewEnv(chooser), symmetry)
					res, err := checkEnv(build(), mc.Options{Symmetry: symmetry}, ts.NewEnv(chooser), nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.VisitedStates != got.States || res.Stats.MaxDepth != got.Depth {
						t.Errorf("symmetry=%v %T: mc.Check (%v) %d states to depth %d, oracle %d to depth %d", symmetry,
							chooser, res.Verdict, res.Stats.VisitedStates, res.Stats.MaxDepth, got.States, got.Depth)
					}
					if res.Verdict != mc.Failure && res.Stats.WildcardAborts == 0 {
						break
					}
				}
				t.Logf("symmetry=%v: %d distinct identities, no fingerprint merges", symmetry, oracle.Identities())
			}
		})
	}
}

// TestExactnessOracleUnreducedWalk runs the exactness oracle over the
// largest space the repository pins: the complete MSI protocol at 5 caches
// without symmetry reduction, which the benchmark's verify-raw workloads
// explore. It must reach exactly the 1,930,178 states to depth 43 that the
// checker reports (bench/expected.json), and no two of them may share a
// fingerprint — so those counts are exact, not just likely. Only without
// -short and without the race detector: it holds every state's encoding,
// about 0.4 GB with its tables. Those hold no pointers, so collecting
// garbage more often than usual costs little and keeps the peak near that
// live size instead of twice it.
func TestExactnessOracleUnreducedWalk(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("1.93M-state exact re-exploration; run without -short and -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	oracle := tstest.New(t)
	got := oracle.Explore(msi.New(msi.Config{Caches: 5, Variant: msi.Complete}), nil, false)
	if want := (tstest.Result{States: 1930178, Depth: 43}); got != want {
		t.Errorf("oracle reached %+v, want %+v", got, want)
	}
	t.Logf("%d distinct identities to depth %d, no fingerprint merges", oracle.Identities(), got.Depth)
}

// TestFingerprintSpread checks the fingerprints of the 105,752 unreduced
// msi-complete-4 states spread evenly over both places the visited table
// reads them: the concurrent table's 64 stripes (the low six bits) and the
// homes of a 1,024-slot table (bits 32 to 41). Each histogram must pass
// a chi-square test of uniformity at a one-sided p of about 10⁻⁶: a
// fingerprint whose home or low bits do not depend on the whole key crowds
// some buckets and fails it.
func TestFingerprintSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 105,752 states")
	}
	oracle := tstest.New(t)
	got := oracle.Explore(msi.New(msi.Config{Caches: 4, Variant: msi.Complete}), nil, false)
	if got.States != 105752 {
		t.Fatalf("oracle reached %d states, want 105752", got.States)
	}
	fps := oracle.Fingerprints()
	stripes, homes := make([]int, 64), make([]int, 1<<10)
	for _, fp := range fps {
		stripes[fp&63]++
		homes[fp>>32&1023]++
	}
	for _, h := range []struct {
		name   string
		counts []int
	}{{"stripes (low 6 bits)", stripes}, {"homes (bits 32-41)", homes}} {
		stat, bound := chiSquare(h.counts, len(fps)), chiSquareBound(len(h.counts)-1)
		t.Logf("%s: chi-square %.1f over %d buckets, bound %.1f", h.name, stat, len(h.counts), bound)
		if stat > bound {
			t.Errorf("%s: chi-square %.1f over %d buckets exceeds %.1f", h.name, stat, len(h.counts), bound)
		}
	}
}

// chiSquare is Pearson's statistic of counts, n items in all, against the
// uniform distribution.
func chiSquare(counts []int, n int) float64 {
	want := float64(n) / float64(len(counts))
	var stat float64
	for _, c := range counts {
		d := float64(c) - want
		stat += d * d / want
	}
	return stat
}

// chiSquareBound is the chi-square quantile at df degrees of freedom with
// one-sided tail probability about 10⁻⁶ (z = 4.75), by the Wilson–Hilferty
// approximation.
func chiSquareBound(df int) float64 {
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+4.75*math.Sqrt(v), 3)
}

// firstActionChooser resolves every hole to its first action, turning a
// sketch into its candidate-0 completion.
type firstActionChooser struct{}

func (firstActionChooser) Choose(string, []string) (int, error) { return 0, nil }
