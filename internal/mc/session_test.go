package mc_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/ts"
	"verc3/internal/visited"
	"verc3/internal/zoo"
)

// candidate is a Peterson-sketch candidate that also tracks usage, the way
// the synthesis engine's chooser does: holes missing from the map are
// wildcards, and each hole has a fixed bit in the usage mask.
type candidate struct {
	pick map[string]int
	mask uint64
}

var petersonHoles = map[string]uint{"turn-write": 0, "exit-flag": 1, "after-crit": 2}

func (c *candidate) Choose(hole string, actions []string) (int, error) {
	c.mask |= 1 << petersonHoles[hole]
	a, ok := c.pick[hole]
	if !ok {
		return 0, ts.ErrWildcard
	}
	return a, nil
}
func (c *candidate) ResetUsage()   { c.mask = 0 }
func (c *candidate) Usage() uint64 { return c.mask }

// outcome is everything a check reports that must not depend on what the
// session checked before: the result with its pool traffic and allocation
// counters blanked, and the counterexample rendered.
type outcome struct {
	res   mc.Result
	trace []string
}

func outcomeOf(t *testing.T, res *mc.Result, err error) outcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	o := outcome{res: *res}
	o.res.Space.PoolHits, o.res.Space.PoolMisses = 0, 0
	if f := res.Failure; f != nil {
		fi := *f
		o.trace = renderTrace(f.Trace)
		fi.Trace = nil
		o.res.Failure = &fi
	}
	return o
}

// TestSessionReuseIsInvisible: a session that checks a failing candidate, an
// inconclusive one, a correct one and the failing one again returns, each
// time, what a one-shot Check of that candidate on a system of its own
// returns — verdict, failure (kind, name, usage mask, trace), Stats and
// every Space figure but the pool's — with traces on and off, on the flat
// table (cleared between checks) and the spill tier (rebuilt), and with the
// liveness phase off and on: Peterson has goals, and the nested DFS runs on
// the session's own worker after each safety pass.
func TestSessionReuseIsInvisible(t *testing.T) {
	candidates := []struct {
		name string
		pick map[string]int
		want mc.Verdict
	}{
		{"wrong-turn", map[string]int{"turn-write": 1, "exit-flag": 0, "after-crit": 0}, mc.Failure},
		{"exit-unbound", map[string]int{"turn-write": 0, "after-crit": 0}, mc.Unknown},
		{"peterson", map[string]int{"turn-write": 0, "exit-flag": 0, "after-crit": 0}, mc.Success},
		{"wrong-turn", map[string]int{"turn-write": 1, "exit-flag": 0, "after-crit": 0}, mc.Failure},
		// A goal failure: the process never leaves its critical section.
		{"hog", map[string]int{"turn-write": 0, "exit-flag": 0, "after-crit": 1}, mc.Failure},
	}
	for _, backend := range []visited.Kind{visited.Flat, visited.Spill} {
		for _, record := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/trace=%v", backend, record), func(t *testing.T) {
				for _, live := range []bool{false, true} {
					opt := mc.Options{Visited: backend, RecordTrace: record, Liveness: live, SpillMem: 1, SpillDir: t.TempDir()}
					sess := mc.NewSession(zooSystem(t, "peterson-sketch"), opt)
					for round := 0; round < 2; round++ {
						for _, c := range candidates {
							ck := &candidate{pick: c.pick}
							res, err := sess.Check(context.Background(), ts.NewEnv(ck), ck)
							got := outcomeOf(t, res, err)

							ref := &candidate{pick: c.pick}
							res, err = checkEnv(zooSystem(t, "peterson-sketch"), opt, ts.NewEnv(ref), ref)
							want := outcomeOf(t, res, err)

							if want.res.Verdict != c.want {
								t.Fatalf("%s liveness=%v: one-shot verdict %v, want %v", c.name, live, want.res.Verdict, c.want)
							}
							if live && c.want != mc.Failure && want.res.Space.LiveStates == 0 {
								t.Fatalf("%s: liveness phase did not run", c.name)
							}
							if record && c.name == "wrong-turn" && len(want.trace) == 0 {
								t.Fatalf("%s: no counterexample recorded", c.name)
							}
							if !reflect.DeepEqual(got, want) {
								t.Errorf("round %d, %s liveness=%v: session and one-shot check differ\n session: %+v %+v\n one-shot: %+v %+v",
									round, c.name, live, got.res, got.res.Failure, want.res, want.res.Failure)
							}
						}
					}
				}
			})
		}
	}
}

// partialChooser is a candidate with gaps: it resolves a hole to an action
// picked by hashing its name with the seed, or — one time in len(actions)+1
// — leaves it a wildcard.
type partialChooser uint32

func (c partialChooser) Choose(hole string, actions []string) (int, error) {
	h := fnv.New32a()
	h.Write([]byte(hole))
	a := int((h.Sum32() ^ uint32(c)*2654435761) % uint32(len(actions)+1))
	if a == len(actions) {
		return 0, ts.ErrWildcard
	}
	return a, nil
}

// TestSessionReuseAcrossTableGrowth is the same law where a check outgrows
// the visited table's first size: the session drops a grown table instead of
// clearing it, so the next check's table grows — and reports its footprint
// — as a new one would. The candidates are MSI-small assignments: the
// hand-written protocol's, which runs to the full reachable space, between
// partial ones that fail or give up early.
func TestSessionReuseAcrossTableGrowth(t *testing.T) {
	complete := &candidate{pick: map[string]int{
		"c/IS_D/Data/resp": 0, "c/IS_D/Data/next": int(msi.CacheS),
		"d/I_M/Ack/resp": 0, "d/I_M/Ack/next": int(msi.DirM), "d/I_M/Ack/track": 1,
		"d/S_M/Ack/resp": 0, "d/S_M/Ack/next": int(msi.DirM), "d/S_M/Ack/track": 1,
	}}
	choosers := []ts.Chooser{partialChooser(0), complete, partialChooser(1), partialChooser(2), complete, complete, partialChooser(3)}
	build := func() ts.System { return msi.New(msi.Config{Caches: 2, Variant: msi.Small}) }
	sess := mc.NewSession(build(), mc.Options{})
	grew, small := 0, 0
	for _, c := range choosers {
		res, err := sess.Check(context.Background(), ts.NewEnv(c), nil)
		got := outcomeOf(t, res, err)
		res, err = checkEnv(build(), mc.Options{}, ts.NewEnv(c), nil)
		want := outcomeOf(t, res, err)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("candidate %v: session and one-shot check differ\n session:  %+v %+v\n one-shot: %+v %+v",
				c, got.res, got.res.Failure, want.res, want.res.Failure)
		}
		if want.res.Space.VisitedBytes > 2048 {
			grew++
		} else {
			small++
		}
	}
	if grew != 3 || small != 4 {
		t.Errorf("%d checks grew the table and %d did not: want 3 and 4, interleaved", grew, small)
	}
}

// TestSessionNeverOverwritesReturnedTraces: a counterexample a session
// returned must render the same after the session, and a traceless session
// on the same system — hence the same pool — have checked on: neither the
// buffers a session keeps nor the states it recycles may be reachable from a
// Result already handed out.
func TestSessionNeverOverwritesReturnedTraces(t *testing.T) {
	sys := boundedNet{msi.New(msi.Config{Caches: 2})}
	traced := mc.NewSession(sys, mc.Options{RecordTrace: true})
	res, err := traced.Check(context.Background(), nil, nil)
	first := outcomeOf(t, res, err)
	if first.res.Verdict != mc.Failure || len(first.trace) < 3 {
		t.Fatalf("expected a bounded-net counterexample, got %v with %d steps", first.res.Verdict, len(first.trace))
	}
	traceless := mc.NewSession(sys, mc.Options{})
	for i := 0; i < 4; i++ {
		if _, err := traceless.Check(context.Background(), nil, nil); err != nil {
			t.Fatal(err)
		}
		again, err := traced.Check(context.Background(), nil, nil)
		if o := outcomeOf(t, again, err); !reflect.DeepEqual(o.trace, first.trace) {
			t.Fatalf("check %d of the session found a different counterexample:\n%q\n%q", i+2, o.trace, first.trace)
		}
	}
	if after := outcomeOf(t, res, nil); !reflect.DeepEqual(after.trace, first.trace) {
		t.Fatalf("the first counterexample changed under later checks:\n before: %q\n after:  %q", first.trace, after.trace)
	}
}

// zooSystem builds the named zoo system.
func zooSystem(t testing.TB, name string) ts.System {
	t.Helper()
	sys, err := zoo.Get(name, zoo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
