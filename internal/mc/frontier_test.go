package mc_test

// Tests of the block frontier (frontier.go): every state it holds when a
// run stops goes back to the pool exactly once, what it allocates does not
// depend on the worker count, and a session's later checks reuse its
// blocks.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"verc3/internal/mc"
	"verc3/internal/msi"
	"verc3/internal/ts"
	"verc3/internal/zoo"
)

// countingSys wraps an MSI system as a recycler of its own: it records
// every state the model hands out and counts how often each is recycled.
// Recycled storage is never handed out again (the model's pool stays
// empty), so every state has one life. With cancelAt set, the cancelAt-th
// firing cancels the run's context; with netCap set, an extra invariant
// fails on the first state with netCap messages in flight.
type countingSys struct {
	ts.System
	netCap   int
	cancelAt int64
	cancel   context.CancelFunc

	fires    atomic.Int64
	mu       sync.Mutex
	recycled map[ts.State]int
}

func newCountingSys(caches int) *countingSys {
	return &countingSys{
		System:   msi.New(msi.Config{Caches: caches, Variant: msi.Complete}),
		recycled: map[ts.State]int{},
	}
}

func (c *countingSys) handOut(s ts.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.recycled[s]; ok {
		panic(fmt.Sprintf("state %s handed out twice", s.Key()))
	}
	c.recycled[s] = 0
}

func (c *countingSys) Initial() []ts.State {
	inits := c.System.Initial()
	for _, s := range inits {
		c.handOut(s)
	}
	return inits
}

func (c *countingSys) FireRule(src ts.State, r ts.Rule, env *ts.Env) (ts.State, error) {
	if c.fires.Add(1) == c.cancelAt {
		c.cancel()
	}
	next, err := c.System.FireRule(src, r, env)
	if next != nil {
		c.handOut(next)
	}
	return next, err
}

func (c *countingSys) Recycle(s ts.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.recycled[s]
	if !ok {
		panic(fmt.Sprintf("recycled state %s was never handed out", s.Key()))
	}
	c.recycled[s] = n + 1
}

func (c *countingSys) Invariants() []ts.Invariant {
	invs := c.System.Invariants()
	if c.netCap == 0 {
		return invs
	}
	return append(invs[:len(invs):len(invs)], ts.Invariant{
		Name:  "net-cap",
		Holds: func(s ts.State) bool { return s.(*msi.State).Net.Len() < c.netCap },
	})
}

// TestFrontierReleasesEveryHeldState stops runs mid-level — by a
// violation, by the state cap and by cancellation — under BFS at one and
// two workers and under DFS, and checks that every state the model handed
// out was recycled exactly once. With traces on nothing a trace node holds
// may be recycled, and nothing may be recycled twice.
func TestFrontierReleasesEveryHeldState(t *testing.T) {
	type stopper struct {
		name string
		set  func(c *countingSys, opt *mc.Options)
		want mc.Verdict
	}
	stoppers := []stopper{
		{"complete", func(*countingSys, *mc.Options) {}, mc.Success},
		{"violation", func(c *countingSys, _ *mc.Options) { c.netCap = 3 }, mc.Failure},
		{"state-cap", func(_ *countingSys, opt *mc.Options) { opt.MaxStates = 500 }, mc.Unknown},
		{"cancel", func(c *countingSys, _ *mc.Options) { c.cancelAt = 3000 }, mc.Aborted},
	}
	orders := []struct {
		name string
		opt  mc.Options
	}{
		{"bfs-1", mc.Options{Workers: 1}},
		{"bfs-2", mc.Options{Workers: 2}},
		{"dfs", mc.Options{Order: mc.DFS}},
	}
	for _, st := range stoppers {
		for _, ord := range orders {
			for _, trace := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/trace=%v", st.name, ord.name, trace), func(t *testing.T) {
					c := newCountingSys(3)
					opt := ord.opt
					opt.RecordTrace = trace
					st.set(c, &opt)
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					c.cancel = cancel
					res, err := mc.CheckCtx(ctx, c, opt)
					if err != nil {
						t.Fatal(err)
					}
					if res.Verdict != st.want {
						t.Fatalf("verdict %v, want %v", res.Verdict, st.want)
					}
					retained := map[ts.State]bool{}
					if res.Failure != nil {
						for _, step := range res.Failure.Trace {
							retained[step.State] = true
						}
					}
					wrong := 0
					for s, n := range c.recycled {
						switch {
						case retained[s] && n != 0:
							t.Errorf("state %s of the returned trace was recycled %d times", s.Key(), n)
						case trace && n > 1:
							t.Errorf("state %s recycled %d times", s.Key(), n)
						case !trace && n != 1:
							wrong++
						}
					}
					if wrong > 0 {
						t.Errorf("%d of %d states handed out were not recycled exactly once", wrong, len(c.recycled))
					}
					if trace && len(retained) == 0 && st.want == mc.Failure {
						t.Error("a traced failure returned no trace")
					}
				})
			}
		}
	}
}

// TestFrontierFootprint pins the frontier's allocation to what it holds,
// at any width: on the unreduced msi-complete-4 space, the blocks a run
// allocates hold at most its peak frontier plus three 1,024-entry blocks
// per worker — the block it is filling, the one it is expanding, and the
// partly filled last block of its share of the level. Growth that follows
// the schedule rather than the level, as per-worker doubling buffers did,
// fails it.
func TestFrontierFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 105,752 states twice")
	}
	bytes := map[int]int{}
	for _, workers := range []int{1, 2} {
		s := mc.NewSession(zooSystem(t, "msi-complete-4"), mc.Options{Workers: workers})
		res, err := s.Check(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != mc.Success || res.Stats.VisitedStates != 105752 {
			t.Fatalf("workers=%d: %v / %d states", workers, res.Verdict, res.Stats.VisitedStates)
		}
		bytes[workers] = mc.FrontierBlockBytes(s)
		t.Logf("workers=%d: %d KiB of blocks for a peak frontier of %d entries (%d KiB)", workers,
			bytes[workers]>>10, res.Space.PeakFrontier, res.Space.PeakFrontier*mc.FrontierItemBytes>>10)
		spare := 3 * workers
		if limit := (res.Space.PeakFrontier + spare*1024) * mc.FrontierItemBytes; bytes[workers] > limit {
			t.Errorf("workers=%d: allocated %d block bytes, want <= %d (peak frontier plus %d 1,024-entry blocks)",
				workers, bytes[workers], limit, spare)
		}
	}
	t.Logf("two workers allocated %.2fx one worker's blocks", float64(bytes[2])/float64(bytes[1]))
}

// TestFrontierSessionReusesBlocks checks that a session's first check
// allocates every frontier block its later checks of the same model need,
// for every zoo entry (sketches under a wildcard chooser) in both orders.
func TestFrontierSessionReusesBlocks(t *testing.T) {
	for _, name := range zoo.Names() {
		for _, opt := range []mc.Options{{}, {Order: mc.DFS}, {RecordTrace: true}} {
			t.Run(fmt.Sprintf("%s/dfs=%v/trace=%v", name, opt.Order == mc.DFS, opt.RecordTrace), func(t *testing.T) {
				sys, err := zoo.Get(name, zoo.Params{Caches: 2})
				if err != nil {
					t.Fatal(err)
				}
				s := mc.NewSession(sys, opt)
				env := ts.NewEnv(wildcardChooser{})
				var first int
				for i := 0; i < 4; i++ {
					if _, err := s.Check(context.Background(), env, nil); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						first = mc.FrontierBlockBytes(s)
					} else if got := mc.FrontierBlockBytes(s); got != first {
						t.Fatalf("check %d allocated %d more block bytes", i+1, got-first)
					}
				}
			})
		}
	}
}
