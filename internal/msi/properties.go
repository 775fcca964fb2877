package msi

import (
	"fmt"
	"strings"

	"verc3/internal/ts"
)

// Invariants implements ts.System: the safety and well-formedness properties
// of §III.
//
//   - SWMR: the Single-Writer–Multiple-Reader invariant.
//   - Data-value properties: S and M copies match the ghost "last write",
//     and memory is current whenever the directory believes no writer
//     exists.
//   - no-protocol-error: no agent received a message it has no handler for.
//   - Handshake well-formedness ("several additional properties asserting
//     liveness", the paper's reference [16]): every in-progress transaction
//     has evidence of forward progress in flight. These reject candidates
//     that park a transaction forever (e.g. completing a write without
//     unblocking the directory), which deadlock detection alone misses when
//     other caches can still make moves.
func (sys *System) Invariants() []ts.Invariant {
	return []ts.Invariant{
		{Name: "no-protocol-error", Holds: func(s ts.State) bool {
			return s.(*State).Err == ""
		}},
		{Name: "SWMR", Holds: func(s ts.State) bool {
			st := s.(*State)
			writers, readers := 0, 0
			for i := range st.Caches {
				switch st.Caches[i].St {
				case CacheM:
					writers++
				case CacheS:
					readers++
				}
			}
			return writers == 0 || (writers == 1 && readers == 0)
		}},
		{Name: "S-copy-current", Holds: func(s ts.State) bool {
			st := s.(*State)
			for i := range st.Caches {
				if st.Caches[i].St == CacheS && st.Caches[i].Data != st.Ghost {
					return false
				}
			}
			return true
		}},
		{Name: "M-copy-current", Holds: func(s ts.State) bool {
			st := s.(*State)
			for i := range st.Caches {
				if st.Caches[i].St == CacheM && st.Caches[i].Data != st.Ghost {
					return false
				}
			}
			return true
		}},
		{Name: "memory-current-when-unowned", Holds: func(s ts.State) bool {
			st := s.(*State)
			if st.Dir.St == DirI || st.Dir.St == DirS {
				return st.Dir.Mem == st.Ghost
			}
			return true
		}},
		{Name: "dir-handshake", Holds: func(s ts.State) bool {
			st := s.(*State)
			d := st.Dir
			if d.St != DirIM && d.St != DirSM && d.St != DirMM {
				return true
			}
			if d.Pending < 0 || int(d.Pending) >= len(st.Caches) {
				return false
			}
			switch st.Caches[d.Pending].St {
			case CacheIMAD, CacheIMA, CacheSMW:
				return true
			}
			return st.Net.has(func(m Msg) bool {
				return m.Kind == MsgAck && m.Src == d.Pending && m.Dst == sys.dirID
			})
		}},
		{Name: "dir-MS-handshake", Holds: func(s ts.State) bool {
			st := s.(*State)
			if st.Dir.St != DirMS {
				return true
			}
			if st.Dir.Pending < 0 || int(st.Dir.Pending) >= len(st.Caches) {
				return false
			}
			// Either the reader is still waiting (its transaction will push
			// the owner's writeback along) or the writeback is in flight.
			if st.Caches[st.Dir.Pending].St == CacheISD {
				return true
			}
			return st.Net.has(func(m Msg) bool {
				return m.Kind == MsgData && m.Dst == sys.dirID
			})
		}},
		{Name: "read-handshake", Holds: func(s ts.State) bool {
			st := s.(*State)
			for i := range st.Caches {
				if st.Caches[i].St != CacheISD {
					continue
				}
				a := int8(i)
				ok := st.Net.has(func(m Msg) bool {
					return (m.Kind == MsgGetS && m.Src == a) ||
						(m.Kind == MsgData && m.Dst == a) ||
						(m.Kind == MsgFwdGetS && m.Req == a)
				})
				if !ok {
					return false
				}
			}
			return true
		}},
		{Name: "write-handshake", Holds: func(s ts.State) bool {
			st := s.(*State)
			for i := range st.Caches {
				switch st.Caches[i].St {
				case CacheIMAD, CacheIMA, CacheSMW:
				default:
					continue
				}
				if (st.Dir.St == DirIM || st.Dir.St == DirSM || st.Dir.St == DirMM) && int(st.Dir.Pending) == i {
					continue
				}
				a := int8(i)
				ok := st.Net.has(func(m Msg) bool {
					return (m.Kind == MsgGetM && m.Src == a) ||
						(m.Kind == MsgData && m.Dst == a) ||
						(m.Kind == MsgInvAck && m.Dst == a) ||
						(m.Kind == MsgInv && m.Req == a)
				})
				if !ok {
					return false
				}
			}
			return true
		}},
	}
}

// Goals implements ts.GoalReporter: the paper's "all stable states must be
// visited at least once" property, added after initial experiments produced
// protocols that were safe but degenerate (e.g. bouncing straight back to
// Invalid, rendering the cache useless). Invalid is the initial state and
// trivially visited; S and M of both controllers are the goals.
func (sys *System) Goals() []ts.ReachGoal {
	return []ts.ReachGoal{
		{Name: "some-cache-reaches-S", Holds: func(s ts.State) bool {
			st := s.(*State)
			for i := range st.Caches {
				if st.Caches[i].St == CacheS {
					return true
				}
			}
			return false
		}},
		{Name: "some-cache-reaches-M", Holds: func(s ts.State) bool {
			st := s.(*State)
			for i := range st.Caches {
				if st.Caches[i].St == CacheM {
					return true
				}
			}
			return false
		}},
		{Name: "dir-reaches-S", Holds: func(s ts.State) bool {
			return s.(*State).Dir.St == DirS
		}},
		{Name: "dir-reaches-M", Holds: func(s ts.State) bool {
			return s.(*State).Dir.St == DirM
		}},
	}
}

// LivenessGoals implements ts.LivenessReporter: a cache with a write in
// flight (the transient IM^AD / IM^A / SM^W states) eventually reaches M.
//
// Without Config.Fair this is a TRUE NEGATIVE by design: with no fairness
// assumption (Fair is false — the plain variants declare no per-message
// delivery fairness), another cache holding M can absorb local stores
// forever while the requester's GetM sits undelivered, so the checker
// reports a lasso. The zoo's differential harness pins that counterexample;
// it is the suite's known-answer liveness failure, exactly as the paper's
// handshake invariants exist because deadlock detection alone misses parked
// transactions.
//
// With Config.Fair the goals demand weakly fair executions only (see
// WeakFairness): the starvation lasso keeps a deliverable message parked on
// its channel forever, is excluded as unfair, and the same goals pass —
// the msi-fair zoo entry.
func (sys *System) LivenessGoals() []ts.LivenessGoal {
	goals := make([]ts.LivenessGoal, 0, sys.cfg.Caches)
	for i := 0; i < sys.cfg.Caches; i++ {
		i := i
		goals = append(goals, ts.LivenessGoal{
			Name: fmt.Sprintf("cache%d-write-completes", i),
			Kind: ts.LeadsTo,
			Fair: sys.cfg.Fair,
			P: func(s ts.State) bool {
				switch s.(*State).Caches[i].St {
				case CacheIMAD, CacheIMA, CacheSMW:
					return true
				}
				return false
			},
			Q: func(s ts.State) bool { return s.(*State).Caches[i].St == CacheM },
		})
	}
	return goals
}

// WeakFairness implements ts.FairnessReporter. With Config.Fair it declares
// one weak-fairness requirement per ordered point-to-point channel — cache
// to directory, directory to cache, and cache to cache: a channel cannot be
// continuously nonempty while none of its deliveries ever fires. Matching
// deliveries by name is why the Fair variant's delivery names carry the
// sender. Two granularity decisions matter:
//
// Per-channel, not per-receiver: in the starvation lasso the directory
// serves the other caches' messages infinitely often, so a per-receiver
// requirement would be discharged by those deliveries and exclude nothing.
//
// Nonempty, not has-deliverable-message: the directory stalls requests
// (GetS/GetM) while transient, so the starved writer's GetM is deliverable
// only intermittently — under weak fairness an intermittently-enabled
// requirement excludes nothing (that is strong fairness's job). Keying
// Enabled on mere channel occupancy closes the gap, and is still a
// realizable assumption in composition: a channel can only stay stalled
// forever if its receiver parks in a transient state forever, which in this
// protocol requires parking another channel's deliverable message — and
// that channel's own requirement already excludes such runs. (A cache in
// IS^D stalling Inv is unstuck by its Data delivery the same way.)
//
// The plain variants return nil; their goals are not Fair, so the liveness
// checker never consults this and their pinned counterexamples are
// untouched.
func (sys *System) WeakFairness() []ts.Fairness {
	if !sys.cfg.Fair {
		return nil
	}
	n := sys.cfg.Caches
	reqs := make([]ts.Fairness, 0, n*n+n)
	channel := func(name string, src, dst int8, takenPrefix, takenFrom string) {
		reqs = append(reqs, ts.Fairness{
			Name: name,
			Enabled: func(s ts.State) bool {
				st := s.(*State)
				if st.Err != "" {
					return false // poisoned states offer no transitions at all
				}
				return st.Net.has(func(m Msg) bool {
					return m.Src == src && m.Dst == dst
				})
			},
			Taken: func(rule string) bool {
				return strings.HasPrefix(rule, takenPrefix) && strings.Contains(rule, takenFrom)
			},
		})
	}
	for j := 0; j < n; j++ {
		channel(fmt.Sprintf("net-c%d-to-dir", j), int8(j), sys.dirID,
			"dir: recv ", fmt.Sprintf(" from c%d in ", j))
	}
	for i := 0; i < n; i++ {
		channel(fmt.Sprintf("net-dir-to-c%d", i), sys.dirID, int8(i),
			fmt.Sprintf("c%d: recv ", i), " from dir in ")
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			channel(fmt.Sprintf("net-c%d-to-c%d", j, i), int8(j), int8(i),
				fmt.Sprintf("c%d: recv ", i), fmt.Sprintf(" from c%d in ", j))
		}
	}
	return reqs
}
