package main

import (
	"errors"
	"fmt"
	"io"

	"verc3/internal/msi"
	"verc3/internal/statespace"
	"verc3/internal/symmetry"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

// walkResult is what a layer walk lands on; it must equal mc.Check's
// counts for the same workload.
type walkResult struct {
	States      int
	Transitions int
	Depth       int
	QueuePeak   int
	KeyBytes    uint64 // summed AppendKey lengths (symmetry off)
	IORetries   int
	Store       visited.Stats
}

type walkItem struct {
	state ts.State
	depth int
}

// walker is the traced run of a verification workload: a sequential,
// traceless BFS that drives the layers' public functions itself — the same
// calls in the same order as mc's sequential driver — and records one span
// per call. Everything between spans is the walk's own bookkeeping and is
// charged to no layer.
type walker struct {
	t       *tracer
	sys     *msi.System
	store   visited.Store
	canon   *symmetry.Canonicalizer // nil with symmetry off
	invs    []ts.Invariant
	goals   []ts.ReachGoal
	goalHit []bool
	// onFresh, when non-nil, sees every admitted state before the state
	// can be recycled; it runs outside every span.
	onFresh func(ts.State)

	queue  statespace.Queue[walkItem]
	keyBuf []byte
	parent uint32 // the expansion the spans being recorded belong to
	res    walkResult
}

func walk(w workload, env *runEnv, t *tracer, onFresh func(ts.State)) (walkResult, error) {
	k := &walker{t: t, sys: env.sys, onFresh: onFresh}
	cfg := visited.Config{
		Kind:     env.mcOpt.Visited,
		SpillMem: env.mcOpt.SpillMem,
		SpillDir: env.mcOpt.SpillDir,
		OnRetry:  func(string, int, error) { k.res.IORetries++ },
	}
	if w.Workers > 1 {
		k.store = visited.NewConcurrent(cfg) // the store pchecker inserts into, uncontended
	} else {
		k.store = visited.New(cfg)
	}
	if w.Symmetry {
		k.canon = symmetry.NewCanonicalizer(w.Caches)
	}
	k.invs = k.sys.Invariants()
	k.goals = k.sys.Goals()
	k.goalHit = make([]bool, len(k.goals))

	err := k.run()
	k.res.States = k.store.Len()
	k.res.QueuePeak = k.queue.Peak()
	k.res.Store = k.store.Stats()
	if c, ok := k.store.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return k.res, err
}

func (k *walker) run() error {
	t := k.t
	for _, s := range k.sys.Initial() {
		if err := k.admit(s, 0); err != nil {
			return err
		}
	}
	marker, _ := k.store.(visited.LevelMarker)
	var trs []ts.Transition
	lastDepth := 0
	for k.queue.Len() > 0 {
		k.parent++
		t0 := t.now()
		it, _ := k.queue.PopFront()
		t.end(clsQueue, k.parent, t0)
		if it.depth > lastDepth {
			lastDepth = it.depth
			if marker != nil {
				t0 = t.now()
				err := marker.EndLevel()
				t.end(clsLevelMerge, k.parent, t0)
				if err != nil {
					return err
				}
			}
		}
		t0 = t.now()
		trs = k.sys.AppendTransitions(trs[:0], it.state)
		t.end(clsEnumerate, k.parent, t0)
		if len(trs) == 0 {
			return errors.New("walk: deadlock")
		}
		for _, tr := range trs {
			t0 = t.now()
			next, err := tr.Fire(nil)
			t.end(clsFire, k.parent, t0)
			if err != nil {
				return fmt.Errorf("walk: transition %q: %w", tr.Name, err)
			}
			k.res.Transitions++
			if err := k.admit(next, it.depth+1); err != nil {
				return err
			}
		}
		t0 = t.now()
		k.sys.Recycle(it.state)
		t.end(clsRecycle, k.parent, t0)
	}
	for gi, hit := range k.goalHit {
		if !hit {
			return fmt.Errorf("walk: goal %q never reached", k.goals[gi].Name)
		}
	}
	return nil
}

// admit keys s, offers it to the visited set and, when fresh, checks the
// properties and queues it; a duplicate goes straight back to the pool.
func (k *walker) admit(s ts.State, depth int) error {
	t := k.t
	var fp statespace.Fingerprint
	t0 := t.now()
	if k.canon != nil {
		fp = k.canon.Fingerprint(s)
		t.end(clsCanon, k.parent, t0)
	} else {
		k.keyBuf = s.(ts.KeyAppender).AppendKey(k.keyBuf[:0])
		fp = statespace.OfBytes(k.keyBuf)
		t.end(clsKey, k.parent, t0)
		k.res.KeyBytes += uint64(len(k.keyBuf))
	}
	t0 = t.now()
	fresh := k.store.TryInsert(fp)
	t.end(clsInsert, k.parent, t0)
	if !fresh {
		t0 = t.now()
		k.sys.Recycle(s)
		t.end(clsRecycle, k.parent, t0)
		return nil
	}
	if depth > k.res.Depth {
		k.res.Depth = depth
	}
	t0 = t.now()
	violated := ""
	for _, inv := range k.invs {
		if !inv.Holds(s) {
			violated = inv.Name
			break
		}
	}
	for gi := range k.goals {
		if !k.goalHit[gi] && k.goals[gi].Holds(s) {
			k.goalHit[gi] = true
		}
	}
	t.end(clsInvariants, k.parent, t0)
	if violated != "" {
		return fmt.Errorf("walk: invariant %q violated", violated)
	}
	if k.onFresh != nil {
		k.onFresh(s)
	}
	t0 = t.now()
	k.queue.PushBack(walkItem{state: s, depth: depth})
	t.end(clsQueue, k.parent, t0)
	return nil
}
