package msi

import (
	"fmt"
	"strconv"
	"sync"

	"verc3/internal/ts"
)

// Variant selects how much of the protocol is left as holes.
type Variant int

// Protocol variants.
const (
	// Complete is the full hand-written protocol: no holes; verifies clean.
	Complete Variant = iota
	// Small is the paper's MSI-small problem: 8 holes = 2 directory
	// transient rules (I_M+Ack, S_M+Ack; 3 holes each) + 1 cache transient
	// rule (IS_D+Data; 2 holes).
	Small
	// Large is the paper's MSI-large problem: 12 holes = the Small rules
	// plus 2 more cache rules (SM_W+Inv and IM_A+InvAck-last; 2 holes each).
	Large
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case Complete:
		return "MSI-complete"
	case Small:
		return "MSI-small"
	case Large:
		return "MSI-large"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes the MSI system.
type Config struct {
	// Caches is the number of symmetric cache controllers (1..8; the paper
	// does not state its count — see EXPERIMENTS.md).
	Caches int
	// Variant selects Complete / Small / Large.
	Variant Variant
	// Fair declares per-channel network-delivery weak fairness: a deliverable
	// message on an ordered (sender, receiver) channel is eventually
	// delivered. Delivery transition names then carry the sender (so fairness
	// requirements can recognize a channel's deliveries by name), the
	// liveness goals become Fair, and the starvation lasso the plain variant
	// exhibits is excluded as unfair — the same goals pass.
	Fair bool
}

// System implements ts.System for the MSI protocol, plus successor
// pooling (ts.Recycler through the embedded pool):
// enabled transitions are ts.Rule records, FireRule draws its clones from
// the pool, and names come from a table shared by every System of the same
// shape. The tables are immutable and the pool is safe for concurrent use,
// so a System remains safe for concurrent synthesis workers.
type System struct {
	ts.Pool[*State]

	cfg     Config
	dirID   int8
	holes   [numRules]bool // the hole rules this variant leaves to the synthesizer
	names   *nameTable
	initial State // what Initial copies; its Caches alias invalidCaches and are never written
}

// invalidCaches is every initial state's cache array: all Invalid.
var invalidCaches [8]Cache

// ruleID is the protocol's rule enum: what ts.Rule.ID holds, what FireRule
// switches on, and the index of the per-rule tables (System.holes,
// holeRules).
type ruleID uint16

const (
	// Cache-initiated rules; ts.Rule.Agent is the cache.
	ruleIssueRead ruleID = iota
	ruleIssueWrite
	ruleIssueUpgrade
	ruleStore
	// Deliveries to a cache, by (cache state, message type); ts.Rule.Agent
	// is the cache, ts.Rule.Msg the message's index in the network.
	ruleCacheISDData    // hole rule IS_D/Data
	ruleCacheWData      // Data while awaiting it for a write (IM_AD, SM_W)
	ruleCacheWInvAck    // an Inv-Ack that overtook that Data
	ruleCacheIMAAckLast // hole rule IM_A/InvAck-last: the last Inv-Ack needed
	ruleCacheIMAInvAck  // any earlier one
	ruleCacheSMWInv     // hole rule SM_W/Inv
	ruleCacheSInv
	ruleCacheMFwdGetS
	ruleCacheMFwdGetM
	ruleCacheUnhandled // no handler: a protocol error (Murphi's "unhandled message")
	// Deliveries to the directory, by (directory state, message type).
	ruleDirIGetS
	ruleDirIGetM
	ruleDirSGetS
	ruleDirSGetM
	ruleDirMGetS
	ruleDirMGetM
	ruleDirIMAck // hole rule I_M/Ack
	ruleDirSMAck // hole rule S_M/Ack
	ruleDirMMAck
	ruleDirMSData
	ruleDirUnhandled
	numRules

	// ruleStall is a classification, never a record: the receiver leaves
	// the message in the network for now.
	ruleStall = numRules
	// firstDirRule splits the delivery rules by receiver.
	firstDirRule = ruleDirIGetS
)

// cacheRules and dirRules classify a delivery: the rule that handles a
// message of a kind at a receiver in a state, ruleStall when the receiver
// stalls it, the receiver's unhandled rule when nothing does. One entry is
// refined by data: an Inv-Ack in IM_A is the last one iff one is awaited.
var cacheRules, dirRules = classify()

func classify() (c [numCacheStates][numMsgKinds]ruleID, d [numDirStates][numMsgKinds]ruleID) {
	for s := range c {
		for k := range c[s] {
			c[s][k] = ruleCacheUnhandled
		}
	}
	c[CacheISD][MsgData] = ruleCacheISDData
	c[CacheISD][MsgInv] = ruleStall // until Data arrives
	c[CacheIMAD][MsgData] = ruleCacheWData
	c[CacheIMAD][MsgInvAck] = ruleCacheWInvAck
	c[CacheIMA][MsgInvAck] = ruleCacheIMAInvAck
	c[CacheSMW][MsgData] = ruleCacheWData
	c[CacheSMW][MsgInvAck] = ruleCacheWInvAck
	c[CacheSMW][MsgInv] = ruleCacheSMWInv
	c[CacheS][MsgInv] = ruleCacheSInv
	c[CacheM][MsgFwdGetS] = ruleCacheMFwdGetS
	c[CacheM][MsgFwdGetM] = ruleCacheMFwdGetM

	for s := range d {
		for k := range d[s] {
			d[s][k] = ruleDirUnhandled
		}
		if stable := DirState(s) == DirI || DirState(s) == DirS || DirState(s) == DirM; !stable {
			d[s][MsgGetS], d[s][MsgGetM] = ruleStall, ruleStall // serialize: requests wait out transients
		}
	}
	d[DirI][MsgGetS], d[DirI][MsgGetM] = ruleDirIGetS, ruleDirIGetM
	d[DirS][MsgGetS], d[DirS][MsgGetM] = ruleDirSGetS, ruleDirSGetM
	d[DirM][MsgGetS], d[DirM][MsgGetM] = ruleDirMGetS, ruleDirMGetM
	d[DirIM][MsgAck] = ruleDirIMAck
	d[DirSM][MsgAck] = ruleDirSMAck
	d[DirMM][MsgAck] = ruleDirMMAck
	d[DirMS][MsgData] = ruleDirMSData
	return c, d
}

// Designer action libraries. Their cardinalities (3, 7 / 5, 7, 3) are the
// paper's: they factor Table I's candidate counts exactly.
var (
	cacheRespActions = []string{"none", "ack-dir", "invack-req"}
	cacheNextActions = cacheStateNames[:]
	dirRespActions   = []string{"none", "data-pend", "fwdgets-owner", "fwdgetm-owner", "inv-sharers"}
	dirNextActions   = dirStateNames[:]
	dirTrackActions  = []string{"none", "owner=pend", "sharer+=pend"}
)

// Indices into the action libraries, for the fixed rules and the complete
// protocol's choices at the hole rules.
const (
	cRespNone      = 0
	cRespAckDir    = 1
	cRespInvAckReq = 2

	dRespNone       = 0
	dRespDataPend   = 1
	dRespFwdGetS    = 2
	dRespFwdGetM    = 3
	dRespInvSharers = 4

	dTrackNone   = 0
	dTrackOwner  = 1
	dTrackSharer = 2
)

// holeRule describes one rule a variant may leave open: its holes in the
// order they are consulted — response, next state and, for the directory,
// tracking — each with its name and action library, and the actions the
// complete protocol takes there.
type holeRule struct {
	names   [3]string
	libs    [3][]string // libs[2] is nil for cache rules
	correct [3]int
}

// holeRules is indexed by ruleID; only the five hole rules have entries.
var holeRules = [numRules]holeRule{
	ruleCacheISDData: {
		names:   [3]string{"c/IS_D/Data/resp", "c/IS_D/Data/next"},
		libs:    [3][]string{cacheRespActions, cacheNextActions},
		correct: [3]int{cRespNone, int(CacheS)},
	},
	// The race the paper highlights: an upgrading sharer loses to a competing
	// writer; it must surrender its S copy, Inv-Ack the winner, and fall back
	// to the I→M path for its own pending GetM.
	ruleCacheSMWInv: {
		names:   [3]string{"c/SM_W/Inv/resp", "c/SM_W/Inv/next"},
		libs:    [3][]string{cacheRespActions, cacheNextActions},
		correct: [3]int{cRespInvAckReq, int(CacheIMAD)},
	},
	ruleCacheIMAAckLast: {
		names:   [3]string{"c/IM_A/InvAck-last/resp", "c/IM_A/InvAck-last/next"},
		libs:    [3][]string{cacheRespActions, cacheNextActions},
		correct: [3]int{cRespAckDir, int(CacheM)},
	},
	ruleDirIMAck: {
		names:   [3]string{"d/I_M/Ack/resp", "d/I_M/Ack/next", "d/I_M/Ack/track"},
		libs:    [3][]string{dirRespActions, dirNextActions, dirTrackActions},
		correct: [3]int{dRespNone, int(DirM), dTrackOwner},
	},
	ruleDirSMAck: {
		names:   [3]string{"d/S_M/Ack/resp", "d/S_M/Ack/next", "d/S_M/Ack/track"},
		libs:    [3][]string{dirRespActions, dirNextActions, dirTrackActions},
		correct: [3]int{dRespNone, int(DirM), dTrackOwner},
	},
}

// nameTable holds every transition name a System of one shape (cache count,
// Fair) can offer, flat, with the offsets of its blocks: four issue/store
// names per cache, one delivery name per (cache, message kind, cache state)
// and one per (message kind, directory state). The Fair variant's delivery
// names additionally carry the sender ("c1: recv Data from dir in IS_D"),
// so per-channel fairness requirements can recognize a channel's deliveries
// by rule name; its table has those blocks too, indexed by sender with
// caches standing for the directory. The plain variants keep their exact
// historical names, which the differential suite pins (including the
// msi-complete starvation lasso). ts.Rule.Name is an index into all.
type nameTable struct {
	all                []string
	caches             int
	cacheRecv, dirRecv int // block offsets; the issue block starts at 0
	cacheFrom, dirFrom int // Fair blocks; zero when absent
}

// Issue-block columns.
const (
	nameIssueRead = iota
	nameIssueWrite
	nameIssueUpgrade
	nameStore
	issueNames
)

func (nt *nameTable) issue(i, col int) uint32 { return uint32(i*issueNames + col) }

func (nt *nameTable) cacheRecvName(i int, k MsgKind, cs CacheState) uint32 {
	return uint32(nt.cacheRecv + (i*int(numMsgKinds)+int(k))*int(numCacheStates) + int(cs))
}

func (nt *nameTable) dirRecvName(k MsgKind, ds DirState) uint32 {
	return uint32(nt.dirRecv + int(k)*int(numDirStates) + int(ds))
}

func (nt *nameTable) cacheFromName(i, src int, k MsgKind, cs CacheState) uint32 {
	return uint32(nt.cacheFrom + ((i*(nt.caches+1)+src)*int(numMsgKinds)+int(k))*int(numCacheStates) + int(cs))
}

func (nt *nameTable) dirFromName(src int, k MsgKind, ds DirState) uint32 {
	return uint32(nt.dirFrom + (src*int(numMsgKinds)+int(k))*int(numDirStates) + int(ds))
}

// sharedNames holds the one nameTable per shape, each built on first use:
// the tables are a pure function of (Caches, Fair) and immutable, so New
// formats nothing and every System of a shape points at the same table.
var sharedNames [8][2]struct {
	once sync.Once
	nt   *nameTable
}

func namesFor(caches int, fair bool) *nameTable {
	f := 0
	if fair {
		f = 1
	}
	slot := &sharedNames[caches-1][f]
	slot.once.Do(func() { slot.nt = buildNames(caches, fair) })
	return slot.nt
}

// buildNames lays out and renders the name table for a shape.
func buildNames(caches int, fair bool) *nameTable {
	const perCache, perDir = int(numMsgKinds) * int(numCacheStates), int(numMsgKinds) * int(numDirStates)
	nt := &nameTable{caches: caches}
	nt.cacheRecv = caches * issueNames
	nt.dirRecv = nt.cacheRecv + caches*perCache
	size := nt.dirRecv + perDir
	if fair {
		nt.cacheFrom = size
		nt.dirFrom = nt.cacheFrom + caches*(caches+1)*perCache
		size = nt.dirFrom + caches*perDir
	}
	nt.all = make([]string, size)
	agent := make([]string, caches+1) // "c0".."cN-1", "dir"
	for i := 0; i < caches; i++ {
		agent[i] = "c" + strconv.Itoa(i)
	}
	agent[caches] = "dir"
	for i := 0; i < caches; i++ {
		nt.all[nt.issue(i, nameIssueRead)] = agent[i] + ": issue read"
		nt.all[nt.issue(i, nameIssueWrite)] = agent[i] + ": issue write"
		nt.all[nt.issue(i, nameIssueUpgrade)] = agent[i] + ": issue upgrade"
		nt.all[nt.issue(i, nameStore)] = agent[i] + ": store"
	}
	for k, mt := range msgKindNames {
		k := MsgKind(k)
		for cs := CacheState(0); cs < numCacheStates; cs++ {
			for i := 0; i < caches; i++ {
				nt.all[nt.cacheRecvName(i, k, cs)] = agent[i] + ": recv " + mt + " in " + cs.String()
				for src := 0; fair && src <= caches; src++ {
					nt.all[nt.cacheFromName(i, src, k, cs)] = agent[i] + ": recv " + mt + " from " + agent[src] + " in " + cs.String()
				}
			}
		}
		for ds := DirState(0); ds < numDirStates; ds++ {
			nt.all[nt.dirRecvName(k, ds)] = "dir: recv " + mt + " in " + ds.String()
			for src := 0; fair && src < caches; src++ {
				nt.all[nt.dirFromName(src, k, ds)] = "dir: recv " + mt + " from " + agent[src] + " in " + ds.String()
			}
		}
	}
	return nt
}

// New builds an MSI system. Caches defaults to 3.
func New(cfg Config) *System {
	if cfg.Caches == 0 {
		cfg.Caches = 3
	}
	if cfg.Caches < 1 || cfg.Caches > 8 {
		panic("msi: Caches must be in 1..8 (sharer bitset)")
	}
	sys := &System{cfg: cfg, dirID: int8(cfg.Caches), names: namesFor(cfg.Caches, cfg.Fair)}
	sys.initial = State{Caches: invalidCaches[:cfg.Caches], Dir: Dir{St: DirI, Owner: None, Pending: None}}
	if cfg.Variant == Small || cfg.Variant == Large {
		sys.holes[ruleCacheISDData] = true
		sys.holes[ruleDirIMAck] = true
		sys.holes[ruleDirSMAck] = true
	}
	if cfg.Variant == Large {
		sys.holes[ruleCacheSMWInv] = true
		sys.holes[ruleCacheIMAAckLast] = true
	}
	return sys
}

// succ returns a successor state equal to st, in recycled storage when the
// pool has any, tallying the pool's answer on env. Either way it owns its
// network, which is what entitles the firing rule to mutate that in place.
func (sys *System) succ(st *State, env *ts.Env) *State {
	if ns, ok := sys.Get(env); ok {
		ns.CopyFrom(st)
		return ns
	}
	return st.Clone().(*State)
}

// Name implements ts.System.
func (sys *System) Name() string {
	if sys.cfg.Fair {
		return sys.cfg.Variant.String() + "-fair"
	}
	return sys.cfg.Variant.String()
}

// PoolStats reports no traffic: a check tallies its pool hits and misses
// per worker, on ts.Env. It is the first call the model checker makes into
// the system at the start of every check (mc.Session.Check), and stays for
// that alone: the repository benchmark's traced synthesis child wraps it to
// mark where each check begins.
func (sys *System) PoolStats() (hits, misses uint64) { return 0, 0 }

// DirID returns the directory's agent index (== number of caches).
func (sys *System) DirID() int { return int(sys.dirID) }

// Initial implements ts.System: all caches Invalid, directory Invalid,
// memory and ghost 0, empty network — in recycled storage when the pool has
// any, like every other state the system hands out.
func (sys *System) Initial() []ts.State {
	return []ts.State{sys.succ(&sys.initial, nil)}
}

// AppendTransitions appends the transitions enabled in s to dst as
// closures, each Fire calling FireRule(s, r, env). It is the form the
// repository benchmark's layer walk enumerates through, and the only closure
// code left; the exploration kernel uses AppendRules and FireRule.
func (sys *System) AppendTransitions(dst []ts.Transition, s ts.State) []ts.Transition {
	for _, r := range sys.AppendRules(make([]ts.Rule, 0, 16), s) {
		r := r
		dst = append(dst, ts.Transition{
			Name: sys.RuleName(r),
			Fire: func(env *ts.Env) (ts.State, error) { return sys.FireRule(s, r, env) },
		})
	}
	return dst
}

// AppendRules implements ts.System: the issue and store rules of every
// cache, in cache order, then one delivery per in-flight message its
// receiver does not stall, in network order.
func (sys *System) AppendRules(dst []ts.Rule, s ts.State) []ts.Rule {
	st := s.(*State)
	if st.Err != "" {
		return dst // poisoned; the no-protocol-error invariant has fired
	}
	nt := sys.names
	for i := range st.Caches {
		a := int16(i)
		switch st.Caches[i].St {
		case CacheI:
			dst = append(dst,
				ts.Rule{ID: uint16(ruleIssueRead), Agent: a, Name: nt.issue(i, nameIssueRead)},
				ts.Rule{ID: uint16(ruleIssueWrite), Agent: a, Name: nt.issue(i, nameIssueWrite)})
		case CacheS:
			dst = append(dst, ts.Rule{ID: uint16(ruleIssueUpgrade), Agent: a, Name: nt.issue(i, nameIssueUpgrade)})
		case CacheM:
			dst = append(dst, ts.Rule{ID: uint16(ruleStore), Agent: a, Name: nt.issue(i, nameStore)})
		}
	}
	msgs := st.Net.msgs
	for mi := range msgs {
		m := &msgs[mi]
		k := m.Kind
		var id ruleID
		var name uint32
		switch {
		case m.Dst == sys.dirID:
			ds := st.Dir.St
			if id = dirRules[ds][k]; id == ruleStall {
				continue
			}
			if sys.cfg.Fair && m.Src >= 0 && m.Src < sys.dirID {
				name = nt.dirFromName(int(m.Src), k, ds)
			} else {
				name = nt.dirRecvName(k, ds)
			}
		case m.Dst >= 0 && int(m.Dst) < len(st.Caches):
			c := st.Caches[m.Dst]
			if id = cacheRules[c.St][k]; id == ruleStall {
				continue
			}
			if id == ruleCacheIMAInvAck && c.Acks == 1 {
				id = ruleCacheIMAAckLast
			}
			if sys.cfg.Fair && m.Src >= 0 && m.Src <= sys.dirID {
				name = nt.cacheFromName(int(m.Dst), int(m.Src), k, c.St)
			} else {
				name = nt.cacheRecvName(int(m.Dst), k, c.St)
			}
		default:
			// Messages to invalid destinations (a synthesized response picked a
			// target that does not exist) just sit in the network; the
			// handshake invariants flag the stuck transaction.
			continue
		}
		dst = append(dst, ts.Rule{ID: uint16(id), Agent: int16(m.Dst), Msg: int32(mi), Name: name})
	}
	return dst
}

// RuleName implements ts.System.
func (sys *System) RuleName(r ts.Rule) string { return sys.names.all[r.Name] }

// FireRule implements ts.System. A hole rule resolves its holes before
// anything is cloned, so a branch aborted at a wildcard never touches the
// pool; a delivery removes its message, does the data plumbing and runs
// the receiver's handler against the source state's view of the receiver.
func (sys *System) FireRule(src ts.State, r ts.Rule, env *ts.Env) (ts.State, error) {
	st := src.(*State)
	id, i := ruleID(r.ID), int(r.Agent)
	acts := holeRules[id].correct
	if sys.holes[id] {
		h := &holeRules[id]
		for k := 0; k < len(h.libs) && h.libs[k] != nil; k++ {
			a, err := env.Choose(h.names[k], h.libs[k])
			if err != nil {
				return nil, err
			}
			acts[k] = a
		}
	}
	ns := sys.succ(st, env)
	switch id {
	case ruleIssueRead:
		ns.Net.SendInPlace(Msg{Kind: MsgGetS, Src: int8(i), Dst: sys.dirID, Req: None})
		ns.Caches[i].St = CacheISD
		return ns, nil
	case ruleIssueWrite:
		ns.Net.SendInPlace(Msg{Kind: MsgGetM, Src: int8(i), Dst: sys.dirID, Req: None})
		ns.Caches[i].St = CacheIMAD
		return ns, nil
	case ruleIssueUpgrade:
		ns.Net.SendInPlace(Msg{Kind: MsgGetM, Src: int8(i), Dst: sys.dirID, Req: None})
		ns.Caches[i].St = CacheSMW
		return ns, nil
	case ruleStore:
		sys.store(ns, i)
		return ns, nil
	}
	m := st.Net.msgs[r.Msg]
	ns.Net.RemoveInPlace(int(r.Msg))
	if id < firstDirRule {
		if m.Kind == MsgData {
			ns.Caches[i].Data = m.Val // data delivery plumbing
		}
		sys.cacheRecv(ns, st.Caches[i], id, i, m, acts)
	} else {
		if m.Kind == MsgData {
			ns.Dir.Mem = m.Val // writeback plumbing
		}
		sys.dirRecv(ns, st.Dir, id, m, acts)
	}
	return ns, nil
}

// store performs cache i's write: the line takes the next value in the tiny
// data domain and the ghost "last write" variable follows.
func (sys *System) store(ns *State, i int) {
	v := (ns.Ghost + 1) % 2
	ns.Caches[i].Data = v
	ns.Ghost = v
}

// --- Shared action application (used by both fixed rules and holes) ---

// applyCacheResp performs a cache response action for cache i reacting to m.
// ns must own its network storage (every Fire successor does — see succ).
func (sys *System) applyCacheResp(ns *State, i int, m Msg, act int) {
	switch act {
	case cRespNone:
	case cRespAckDir:
		ns.Net.SendInPlace(Msg{Kind: MsgAck, Src: int8(i), Dst: sys.dirID, Req: None})
	case cRespInvAckReq:
		tgt := m.Req
		if tgt < 0 {
			tgt = m.Src // message carries no requester; fall back to sender
		}
		ns.Net.SendInPlace(Msg{Kind: MsgInvAck, Src: int8(i), Dst: tgt, Req: None})
	default:
		panic("msi: bad cache response action")
	}
}

// applyCacheNext moves cache i to the chosen next state, with the protocol's
// fixed semantics attached: entering M from a write transient performs the
// store (the transaction's purpose); entering I drops the line; entering any
// stable state clears the ack counter.
func (sys *System) applyCacheNext(ns *State, i int, act int) {
	old := ns.Caches[i].St
	next := CacheState(act)
	if next == CacheM && (old == CacheIMAD || old == CacheIMA || old == CacheSMW) {
		sys.store(ns, i)
	}
	if next == CacheI {
		ns.Caches[i].Data = 0
	}
	if next == CacheI || next == CacheS || next == CacheM {
		ns.Caches[i].Acks = 0
	}
	ns.Caches[i].St = next
}

// applyDirResp performs a directory response action.
func (sys *System) applyDirResp(ns *State, act int) {
	switch act {
	case dRespNone:
	case dRespDataPend:
		p := ns.Dir.Pending
		if p < 0 {
			ns.Err = "dir-resp:data-pend-without-pending"
			return
		}
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: sys.dirID, Dst: p, Req: None, Val: ns.Dir.Mem})
	case dRespFwdGetS:
		if ns.Dir.Owner < 0 || ns.Dir.Pending < 0 {
			ns.Err = "dir-resp:fwdgets-unset"
			return
		}
		ns.Net.SendInPlace(Msg{Kind: MsgFwdGetS, Src: sys.dirID, Dst: ns.Dir.Owner, Req: ns.Dir.Pending})
	case dRespFwdGetM:
		if ns.Dir.Owner < 0 || ns.Dir.Pending < 0 {
			ns.Err = "dir-resp:fwdgetm-unset"
			return
		}
		ns.Net.SendInPlace(Msg{Kind: MsgFwdGetM, Src: sys.dirID, Dst: ns.Dir.Owner, Req: ns.Dir.Pending})
	case dRespInvSharers:
		if ns.Dir.Sharers == 0 {
			return // vacuous: behaviourally identical to "none"
		}
		if ns.Dir.Pending < 0 {
			ns.Err = "dir-resp:inv-without-pending"
			return
		}
		for j := range ns.Caches {
			if ns.Dir.Sharers&(1<<uint(j)) != 0 {
				ns.Net.SendInPlace(Msg{Kind: MsgInv, Src: sys.dirID, Dst: int8(j), Req: ns.Dir.Pending})
			}
		}
	default:
		panic("msi: bad directory response action")
	}
}

// applyDirTrack performs a directory tracking action.
func (sys *System) applyDirTrack(ns *State, act int) {
	switch act {
	case dTrackNone:
	case dTrackOwner:
		ns.Dir.Owner = ns.Dir.Pending
		ns.Dir.Pending = None
	case dTrackSharer:
		if ns.Dir.Pending >= 0 {
			ns.Dir.Sharers |= 1 << uint(ns.Dir.Pending)
		}
		ns.Dir.Pending = None
	default:
		panic("msi: bad directory track action")
	}
}

// applyDirNext moves the directory to the chosen next state; entering a
// stable state clears the pending requester.
func (sys *System) applyDirNext(ns *State, act int) {
	next := DirState(act)
	if next == DirI || next == DirS || next == DirM {
		ns.Dir.Pending = None
	}
	ns.Dir.St = next
}

// cacheRecv is the cache controller: cache i handles m — already removed
// from ns's network — under rule id. c is the cache as the source state had
// it; acts are a hole rule's resolved actions.
func (sys *System) cacheRecv(ns *State, c Cache, id ruleID, i int, m Msg, acts [3]int) {
	switch id {
	case ruleCacheISDData, ruleCacheIMAAckLast, ruleCacheSMWInv:
		sys.applyCacheResp(ns, i, m, acts[0])
		sys.applyCacheNext(ns, i, acts[1])
	case ruleCacheWData:
		if c.Acks == m.Cnt {
			// All Inv-Acks (if any) already arrived: complete the write.
			sys.applyCacheResp(ns, i, m, cRespAckDir)
			sys.applyCacheNext(ns, i, int(CacheM))
		} else {
			ns.Caches[i].Acks = m.Cnt - c.Acks // still needed
			ns.Caches[i].St = CacheIMA
		}
	case ruleCacheWInvAck:
		ns.Caches[i].Acks++
	case ruleCacheIMAInvAck:
		ns.Caches[i].Acks--
	case ruleCacheSInv:
		sys.applyCacheResp(ns, i, m, cRespInvAckReq)
		sys.applyCacheNext(ns, i, int(CacheI))
	case ruleCacheMFwdGetS:
		// Data to the requester and writeback to the directory.
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: int8(i), Dst: m.Req, Req: None, Val: c.Data})
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: int8(i), Dst: sys.dirID, Req: None, Val: c.Data})
		sys.applyCacheNext(ns, i, int(CacheS))
	case ruleCacheMFwdGetM:
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: int8(i), Dst: m.Req, Req: None, Val: c.Data})
		sys.applyCacheNext(ns, i, int(CacheI))
	default:
		ns.Err = "cache-" + c.St.String() + "+" + m.Kind.String()
	}
}

// dirRecv is the directory controller: it handles m — already removed from
// ns's network — under rule id. d is the directory as the source state had
// it; acts are a hole rule's resolved actions.
func (sys *System) dirRecv(ns *State, d Dir, id ruleID, m Msg, acts [3]int) {
	switch id {
	case ruleDirIGetS:
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Val: d.Mem})
		ns.Dir.Sharers = 1 << uint(m.Src)
		ns.Dir.St = DirS
	case ruleDirIGetM:
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Val: d.Mem})
		ns.Dir.Pending = m.Src
		ns.Dir.St = DirIM
	case ruleDirSGetS:
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Val: d.Mem})
		ns.Dir.Sharers |= 1 << uint(m.Src)
	case ruleDirSGetM:
		var cnt int8
		for j := range ns.Caches {
			if ns.Dir.Sharers&(1<<uint(j)) != 0 && int8(j) != m.Src {
				ns.Net.SendInPlace(Msg{Kind: MsgInv, Src: sys.dirID, Dst: int8(j), Req: m.Src})
				cnt++
			}
		}
		ns.Net.SendInPlace(Msg{Kind: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Cnt: cnt, Val: d.Mem})
		ns.Dir.Sharers = 0
		ns.Dir.Pending = m.Src
		ns.Dir.St = DirSM
	case ruleDirMGetS:
		ns.Dir.Pending = m.Src
		sys.applyDirResp(ns, dRespFwdGetS)
		ns.Dir.St = DirMS
	case ruleDirMGetM:
		ns.Dir.Pending = m.Src
		sys.applyDirResp(ns, dRespFwdGetM)
		ns.Dir.St = DirMM
	case ruleDirIMAck, ruleDirSMAck:
		sys.applyDirResp(ns, acts[0])
		sys.applyDirTrack(ns, acts[2])
		sys.applyDirNext(ns, acts[1])
	case ruleDirMMAck:
		sys.applyDirTrack(ns, dTrackOwner)
		sys.applyDirNext(ns, int(DirM))
	case ruleDirMSData:
		// Writeback from the old owner (Mem updated by plumbing): old owner
		// and the reader become the sharers. Synthesized candidates can reach
		// M_S with these unset; flag rather than corrupt the sharer set.
		if d.Owner < 0 || d.Pending < 0 {
			ns.Err = "dir-M_S+Data-unset"
			return
		}
		ns.Dir.Sharers = (1 << uint(d.Owner)) | (1 << uint(d.Pending))
		ns.Dir.Owner = None
		ns.Dir.Pending = None
		ns.Dir.St = DirS
	default:
		ns.Err = "dir-" + d.St.String() + "+" + m.Kind.String()
	}
}
