package msi

import (
	"fmt"

	"verc3/internal/network"
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

// System implements ts.System for the MSI protocol, plus the successor
// lifecycle extensions (ts.Recycler and ts.PoolReporter through the
// embedded pool, ts.TransitionAppender): Fire draws its clones from the
// pool and transition names come from tables precomputed at construction.
// The protocol tables are immutable after New and the pool is safe for
// concurrent use, so a System remains safe for concurrent synthesis
// workers.
type System struct {
	ts.Pool[*State]

	cfg   Config
	dirID int
	holes map[string]bool // rule IDs synthesized in this variant
	names nameTables
}

// msgTypes indexes the protocol's message types for the name tables.
var msgTypes = [...]string{MsgGetS, MsgGetM, MsgFwdGetS, MsgFwdGetM, MsgInv, MsgInvAck, MsgData, MsgAck}

// msgIndex maps a message type to its msgTypes slot (-1 if unknown; the
// protocol only ever sends the eight types above, so -1 is a fall-back for
// robustness, not a real path).
func msgIndex(t string) int {
	for i, mt := range msgTypes {
		if mt == t {
			return i
		}
	}
	return -1
}

// nameTables holds every transition name the protocol can offer,
// precomputed at construction: four issue/store names per cache, one
// delivery name per (cache, message type, cache state), and one per
// (message type, directory state). With them, steady-state enumeration
// formats no strings at all.
type nameTables struct {
	issueRead    []string
	issueWrite   []string
	issueUpgrade []string
	store        []string
	cacheRecv    [][len(msgTypes)][numCacheStates]string
	dirRecv      [len(msgTypes)][numDirStates]string
	// The Fair variant's delivery names additionally carry the sender
	// ("c1: recv Data from dir in IS_D"), so per-channel fairness
	// requirements can recognize a channel's deliveries by rule name. Nil
	// unless Config.Fair — the plain variants keep their exact historical
	// names, which the differential suite pins (including the msi-complete
	// starvation lasso).
	cacheRecvFrom [][][len(msgTypes)][numCacheStates]string // [dst][src]; src == caches is the directory
	dirRecvFrom   [][len(msgTypes)][numDirStates]string     // [src]
}

// buildNames precomputes the transition-name tables for a cache count.
func buildNames(caches int, fair bool) nameTables {
	nt := nameTables{
		issueRead:    make([]string, caches),
		issueWrite:   make([]string, caches),
		issueUpgrade: make([]string, caches),
		store:        make([]string, caches),
		cacheRecv:    make([][len(msgTypes)][numCacheStates]string, caches),
	}
	for i := 0; i < caches; i++ {
		nt.issueRead[i] = fmt.Sprintf("c%d: issue read", i)
		nt.issueWrite[i] = fmt.Sprintf("c%d: issue write", i)
		nt.issueUpgrade[i] = fmt.Sprintf("c%d: issue upgrade", i)
		nt.store[i] = fmt.Sprintf("c%d: store", i)
		for t, mt := range msgTypes {
			for cs := CacheState(0); cs < numCacheStates; cs++ {
				nt.cacheRecv[i][t][cs] = fmt.Sprintf("c%d: recv %s in %s", i, mt, cs)
			}
		}
	}
	for t, mt := range msgTypes {
		for ds := DirState(0); ds < numDirStates; ds++ {
			nt.dirRecv[t][ds] = fmt.Sprintf("dir: recv %s in %s", mt, ds)
		}
	}
	if !fair {
		return nt
	}
	from := make([]string, caches+1)
	for j := 0; j < caches; j++ {
		from[j] = fmt.Sprintf("c%d", j)
	}
	from[caches] = "dir"
	nt.cacheRecvFrom = make([][][len(msgTypes)][numCacheStates]string, caches)
	for i := 0; i < caches; i++ {
		nt.cacheRecvFrom[i] = make([][len(msgTypes)][numCacheStates]string, caches+1)
		for j := 0; j <= caches; j++ {
			for t, mt := range msgTypes {
				for cs := CacheState(0); cs < numCacheStates; cs++ {
					nt.cacheRecvFrom[i][j][t][cs] = fmt.Sprintf("c%d: recv %s from %s in %s", i, mt, from[j], cs)
				}
			}
		}
	}
	nt.dirRecvFrom = make([][len(msgTypes)][numDirStates]string, caches)
	for j := 0; j < caches; j++ {
		for t, mt := range msgTypes {
			for ds := DirState(0); ds < numDirStates; ds++ {
				nt.dirRecvFrom[j][t][ds] = fmt.Sprintf("dir: recv %s from c%d in %s", mt, j, ds)
			}
		}
	}
	return nt
}

// Rule identifiers for holed transition rules.
const (
	ruleCacheISDData = "IS_D/Data"
	ruleCacheSMWInv  = "SM_W/Inv"
	ruleCacheIMAAck1 = "IM_A/InvAck-last"
	ruleDirIMAck     = "I_M/Ack"
	ruleDirSMAck     = "S_M/Ack"
)

// New builds an MSI system. Caches defaults to 3.
func New(cfg Config) *System {
	if cfg.Caches == 0 {
		cfg.Caches = 3
	}
	if cfg.Caches < 1 || cfg.Caches > 8 {
		panic("msi: Caches must be in 1..8 (sharer bitset)")
	}
	holes := map[string]bool{}
	switch cfg.Variant {
	case Small:
		holes[ruleCacheISDData] = true
		holes[ruleDirIMAck] = true
		holes[ruleDirSMAck] = true
	case Large:
		holes[ruleCacheISDData] = true
		holes[ruleDirIMAck] = true
		holes[ruleDirSMAck] = true
		holes[ruleCacheSMWInv] = true
		holes[ruleCacheIMAAck1] = true
	}
	return &System{cfg: cfg, dirID: cfg.Caches, holes: holes, names: buildNames(cfg.Caches, cfg.Fair)}
}

// succ returns a successor state equal to st, in recycled storage when the
// pool has any. Either way it owns its network, which is what entitles the
// firing rule to mutate that in place.
func (sys *System) succ(st *State) *State {
	if ns, ok := sys.Get(); ok {
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

// DirID returns the directory's agent index (== number of caches).
func (sys *System) DirID() int { return sys.dirID }

// DecodeKey implements ts.KeyDecoder: the inverse of State.AppendKey,
// consuming one state from the front of data and returning the remainder.
// It validates the cache count against the system's configuration, so a
// checkpoint taken from a differently-sized instance is rejected instead
// of silently misparsed.
func (sys *System) DecodeKey(data []byte) (ts.State, []byte, error) {
	s, rest, err := decodeState(data, sys.cfg.Caches)
	if err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// Initial implements ts.System: all caches Invalid, directory Invalid,
// memory and ghost 0, empty network.
func (sys *System) Initial() []ts.State {
	s := &State{
		Caches: make([]Cache, sys.cfg.Caches),
		Dir:    Dir{St: DirI, Owner: None, Pending: None},
	}
	return []ts.State{s}
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

// Indices of the correct actions used by the Complete variant's fixed rules.
const (
	cRespNone      = 0
	cRespAckDir    = 1
	cRespInvAckReq = 2
	dRespNone      = 0
	dTrackNone     = 0
	dTrackOwner    = 1
)

// Transitions implements ts.System.
func (sys *System) Transitions(s ts.State) []ts.Transition {
	return sys.AppendTransitions(nil, s)
}

// AppendTransitions implements ts.TransitionAppender: Transitions appended
// into a caller-owned buffer, with every name a table lookup and every
// Fire clone drawn from the recycled-state pool.
func (sys *System) AppendTransitions(dst []ts.Transition, s ts.State) []ts.Transition {
	st := s.(*State)
	if st.Err != "" {
		return dst // poisoned; the no-protocol-error invariant has fired
	}
	for i := range st.Caches {
		i := i
		switch st.Caches[i].St {
		case CacheI:
			dst = append(dst,
				ts.Transition{Name: sys.names.issueRead[i], Fire: func(*ts.Env) (ts.State, error) {
					ns := sys.succ(st)
					ns.Net.SendInPlace(network.Msg{Type: MsgGetS, Src: i, Dst: sys.dirID, Req: None})
					ns.Caches[i].St = CacheISD
					return ns, nil
				}},
				ts.Transition{Name: sys.names.issueWrite[i], Fire: func(*ts.Env) (ts.State, error) {
					ns := sys.succ(st)
					ns.Net.SendInPlace(network.Msg{Type: MsgGetM, Src: i, Dst: sys.dirID, Req: None})
					ns.Caches[i].St = CacheIMAD
					return ns, nil
				}},
			)
		case CacheS:
			dst = append(dst, ts.Transition{Name: sys.names.issueUpgrade[i], Fire: func(*ts.Env) (ts.State, error) {
				ns := sys.succ(st)
				ns.Net.SendInPlace(network.Msg{Type: MsgGetM, Src: i, Dst: sys.dirID, Req: None})
				ns.Caches[i].St = CacheSMW
				return ns, nil
			}})
		case CacheM:
			dst = append(dst, ts.Transition{Name: sys.names.store[i], Fire: func(*ts.Env) (ts.State, error) {
				ns := sys.succ(st)
				sys.store(ns, i)
				return ns, nil
			}})
		}
	}
	for mi, m := range st.Net.Messages() {
		mi, m := mi, m
		if m.Dst == sys.dirID {
			if tr, ok := sys.dirDelivery(st, mi, m); ok {
				dst = append(dst, tr)
			}
		} else if m.Dst >= 0 && m.Dst < len(st.Caches) {
			if tr, ok := sys.cacheDelivery(st, mi, m); ok {
				dst = append(dst, tr)
			}
		}
		// Messages to invalid destinations (a synthesized response picked a
		// target that does not exist) just sit in the network; the
		// handshake invariants flag the stuck transaction.
	}
	return dst
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
func (sys *System) applyCacheResp(ns *State, i int, m network.Msg, act int) {
	switch act {
	case cRespNone:
	case cRespAckDir:
		ns.Net.SendInPlace(network.Msg{Type: MsgAck, Src: i, Dst: sys.dirID, Req: None})
	case cRespInvAckReq:
		tgt := m.Req
		if tgt < 0 {
			tgt = m.Src // message carries no requester; fall back to sender
		}
		ns.Net.SendInPlace(network.Msg{Type: MsgInvAck, Src: i, Dst: tgt, Req: None})
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

// applyDirResp performs a directory response action reacting to m.
func (sys *System) applyDirResp(ns *State, m network.Msg, act int) {
	switch dirRespActions[act] {
	case "none":
	case "data-pend":
		p := ns.Dir.Pending
		if p < 0 {
			ns.Err = "dir-resp:data-pend-without-pending"
			return
		}
		ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: sys.dirID, Dst: int(p), Req: None, Val: int(ns.Dir.Mem)})
	case "fwdgets-owner":
		if ns.Dir.Owner < 0 || ns.Dir.Pending < 0 {
			ns.Err = "dir-resp:fwdgets-unset"
			return
		}
		ns.Net.SendInPlace(network.Msg{Type: MsgFwdGetS, Src: sys.dirID, Dst: int(ns.Dir.Owner), Req: int(ns.Dir.Pending)})
	case "fwdgetm-owner":
		if ns.Dir.Owner < 0 || ns.Dir.Pending < 0 {
			ns.Err = "dir-resp:fwdgetm-unset"
			return
		}
		ns.Net.SendInPlace(network.Msg{Type: MsgFwdGetM, Src: sys.dirID, Dst: int(ns.Dir.Owner), Req: int(ns.Dir.Pending)})
	case "inv-sharers":
		if ns.Dir.Sharers == 0 {
			return // vacuous: behaviourally identical to "none"
		}
		if ns.Dir.Pending < 0 {
			ns.Err = "dir-resp:inv-without-pending"
			return
		}
		for j := range ns.Caches {
			if ns.Dir.Sharers&(1<<uint(j)) != 0 {
				ns.Net.SendInPlace(network.Msg{Type: MsgInv, Src: sys.dirID, Dst: j, Req: int(ns.Dir.Pending)})
			}
		}
	default:
		panic("msi: bad directory response action")
	}
}

// applyDirTrack performs a directory tracking action.
func (sys *System) applyDirTrack(ns *State, act int) {
	switch dirTrackActions[act] {
	case "none":
	case "owner=pend":
		ns.Dir.Owner = ns.Dir.Pending
		ns.Dir.Pending = None
	case "sharer+=pend":
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

// --- Cache controller ---

// cacheDelivery builds the delivery transition of message m (at network
// index mi) to cache m.Dst, or ok=false when the cache stalls the message.
func (sys *System) cacheDelivery(st *State, mi int, m network.Msg) (ts.Transition, bool) {
	i := m.Dst
	c := st.Caches[i]
	var name string
	if t := msgIndex(m.Type); t >= 0 {
		if sys.cfg.Fair && m.Src >= 0 && m.Src <= sys.dirID {
			name = sys.names.cacheRecvFrom[i][m.Src][t][c.St]
		} else {
			name = sys.names.cacheRecv[i][t][c.St]
		}
	} else {
		name = fmt.Sprintf("c%d: recv %s in %s", i, m.Type, c.St)
	}

	fire := func(apply func(ns *State, env *ts.Env) error) ts.Transition {
		return ts.Transition{Name: name, Fire: func(env *ts.Env) (ts.State, error) {
			ns := sys.succ(st)
			ns.Net.RemoveInPlace(mi)
			if m.Type == MsgData {
				ns.Caches[i].Data = int8(m.Val) // data delivery plumbing
			}
			if err := apply(ns, env); err != nil {
				// The branch aborted (wildcard hole): ns never escaped, so
				// its storage can seed the next clone immediately.
				sys.Recycle(ns)
				return nil, err
			}
			return ns, nil
		}}
	}
	holeRule := func(rule string, correctResp, correctNext int) ts.Transition {
		return fire(func(ns *State, env *ts.Env) error {
			resp, next := correctResp, correctNext
			if sys.holes[rule] {
				var err error
				if resp, err = env.Choose("c/"+rule+"/resp", cacheRespActions); err != nil {
					return err
				}
				if next, err = env.Choose("c/"+rule+"/next", cacheNextActions); err != nil {
					return err
				}
			}
			sys.applyCacheResp(ns, i, m, resp)
			sys.applyCacheNext(ns, i, next)
			return nil
		})
	}

	switch {
	case c.St == CacheISD && m.Type == MsgData:
		return holeRule(ruleCacheISDData, cRespNone, int(CacheS)), true
	case c.St == CacheISD && m.Type == MsgInv:
		return ts.Transition{}, false // stall until Data arrives
	case c.St == CacheIMAD && m.Type == MsgData:
		return fire(func(ns *State, _ *ts.Env) error {
			if int(c.Acks) == m.Cnt {
				// All Inv-Acks (if any) already arrived: complete the write.
				sys.applyCacheResp(ns, i, m, cRespAckDir)
				sys.applyCacheNext(ns, i, int(CacheM))
			} else {
				ns.Caches[i].Acks = int8(m.Cnt) - c.Acks // still needed
				ns.Caches[i].St = CacheIMA
			}
			return nil
		}), true
	case c.St == CacheIMAD && m.Type == MsgInvAck:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Caches[i].Acks++
			return nil
		}), true
	case c.St == CacheIMA && m.Type == MsgInvAck && c.Acks == 1:
		return holeRule(ruleCacheIMAAck1, cRespAckDir, int(CacheM)), true
	case c.St == CacheIMA && m.Type == MsgInvAck:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Caches[i].Acks--
			return nil
		}), true
	case c.St == CacheSMW && m.Type == MsgData:
		return fire(func(ns *State, _ *ts.Env) error {
			if int(c.Acks) == m.Cnt {
				sys.applyCacheResp(ns, i, m, cRespAckDir)
				sys.applyCacheNext(ns, i, int(CacheM))
			} else {
				ns.Caches[i].Acks = int8(m.Cnt) - c.Acks
				ns.Caches[i].St = CacheIMA
			}
			return nil
		}), true
	case c.St == CacheSMW && m.Type == MsgInvAck:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Caches[i].Acks++
			return nil
		}), true
	case c.St == CacheSMW && m.Type == MsgInv:
		// The race the paper highlights: an upgrading sharer loses to a
		// competing writer; it must surrender its S copy, Inv-Ack the
		// winner, and fall back to the I→M path for its own pending GetM.
		return holeRule(ruleCacheSMWInv, cRespInvAckReq, int(CacheIMAD)), true
	case c.St == CacheS && m.Type == MsgInv:
		return fire(func(ns *State, _ *ts.Env) error {
			sys.applyCacheResp(ns, i, m, cRespInvAckReq)
			sys.applyCacheNext(ns, i, int(CacheI))
			return nil
		}), true
	case c.St == CacheM && m.Type == MsgFwdGetS:
		return fire(func(ns *State, _ *ts.Env) error {
			// Data to the requester and writeback to the directory.
			ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: i, Dst: m.Req, Req: None, Val: int(c.Data)})
			ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: i, Dst: sys.dirID, Req: None, Val: int(c.Data)})
			sys.applyCacheNext(ns, i, int(CacheS))
			return nil
		}), true
	case c.St == CacheM && m.Type == MsgFwdGetM:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: i, Dst: m.Req, Req: None, Val: int(c.Data)})
			sys.applyCacheNext(ns, i, int(CacheI))
			return nil
		}), true
	default:
		// No handler: a protocol error (Murphi's "unhandled message").
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Err = fmt.Sprintf("cache-%s+%s", c.St, m.Type)
			return nil
		}), true
	}
}

// --- Directory controller ---

// dirDelivery builds the delivery transition of message m to the directory,
// or ok=false when the directory stalls the message.
func (sys *System) dirDelivery(st *State, mi int, m network.Msg) (ts.Transition, bool) {
	d := st.Dir
	var name string
	if t := msgIndex(m.Type); t >= 0 {
		if sys.cfg.Fair && m.Src >= 0 && m.Src < sys.dirID {
			name = sys.names.dirRecvFrom[m.Src][t][d.St]
		} else {
			name = sys.names.dirRecv[t][d.St]
		}
	} else {
		name = fmt.Sprintf("dir: recv %s in %s", m.Type, d.St)
	}

	fire := func(apply func(ns *State, env *ts.Env) error) ts.Transition {
		return ts.Transition{Name: name, Fire: func(env *ts.Env) (ts.State, error) {
			ns := sys.succ(st)
			ns.Net.RemoveInPlace(mi)
			if m.Type == MsgData {
				ns.Dir.Mem = int8(m.Val) // writeback plumbing
			}
			if err := apply(ns, env); err != nil {
				// Aborted branch (wildcard hole): ns never escaped.
				sys.Recycle(ns)
				return nil, err
			}
			return ns, nil
		}}
	}
	holeRule := func(rule string, correctResp, correctNext, correctTrack int) ts.Transition {
		return fire(func(ns *State, env *ts.Env) error {
			resp, next, track := correctResp, correctNext, correctTrack
			if sys.holes[rule] {
				var err error
				if resp, err = env.Choose("d/"+rule+"/resp", dirRespActions); err != nil {
					return err
				}
				if next, err = env.Choose("d/"+rule+"/next", dirNextActions); err != nil {
					return err
				}
				if track, err = env.Choose("d/"+rule+"/track", dirTrackActions); err != nil {
					return err
				}
			}
			sys.applyDirResp(ns, m, resp)
			sys.applyDirTrack(ns, track)
			sys.applyDirNext(ns, next)
			return nil
		})
	}

	stable := d.St == DirI || d.St == DirS || d.St == DirM
	switch {
	case !stable && (m.Type == MsgGetS || m.Type == MsgGetM):
		return ts.Transition{}, false // serialize: stall requests in transients

	case d.St == DirI && m.Type == MsgGetS:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Val: int(d.Mem)})
			ns.Dir.Sharers = 1 << uint(m.Src)
			ns.Dir.St = DirS
			return nil
		}), true
	case d.St == DirI && m.Type == MsgGetM:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Val: int(d.Mem)})
			ns.Dir.Pending = int8(m.Src)
			ns.Dir.St = DirIM
			return nil
		}), true
	case d.St == DirS && m.Type == MsgGetS:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Val: int(d.Mem)})
			ns.Dir.Sharers |= 1 << uint(m.Src)
			return nil
		}), true
	case d.St == DirS && m.Type == MsgGetM:
		return fire(func(ns *State, _ *ts.Env) error {
			cnt := 0
			for j := range ns.Caches {
				if ns.Dir.Sharers&(1<<uint(j)) != 0 && j != m.Src {
					ns.Net.SendInPlace(network.Msg{Type: MsgInv, Src: sys.dirID, Dst: j, Req: m.Src})
					cnt++
				}
			}
			ns.Net.SendInPlace(network.Msg{Type: MsgData, Src: sys.dirID, Dst: m.Src, Req: None, Cnt: cnt, Val: int(d.Mem)})
			ns.Dir.Sharers = 0
			ns.Dir.Pending = int8(m.Src)
			ns.Dir.St = DirSM
			return nil
		}), true
	case d.St == DirM && m.Type == MsgGetS:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Dir.Pending = int8(m.Src)
			sys.applyDirResp(ns, m, respIndex("fwdgets-owner"))
			ns.Dir.St = DirMS
			return nil
		}), true
	case d.St == DirM && m.Type == MsgGetM:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Dir.Pending = int8(m.Src)
			sys.applyDirResp(ns, m, respIndex("fwdgetm-owner"))
			ns.Dir.St = DirMM
			return nil
		}), true

	case d.St == DirIM && m.Type == MsgAck:
		return holeRule(ruleDirIMAck, dRespNone, int(DirM), dTrackOwner), true
	case d.St == DirSM && m.Type == MsgAck:
		return holeRule(ruleDirSMAck, dRespNone, int(DirM), dTrackOwner), true
	case d.St == DirMM && m.Type == MsgAck:
		return fire(func(ns *State, _ *ts.Env) error {
			sys.applyDirTrack(ns, dTrackOwner)
			sys.applyDirNext(ns, int(DirM))
			return nil
		}), true
	case d.St == DirMS && m.Type == MsgData:
		return fire(func(ns *State, _ *ts.Env) error {
			// Writeback from the old owner (Mem updated by plumbing): old
			// owner and the reader become the sharers. Synthesized
			// candidates can reach M_S with these unset; flag rather than
			// corrupt the sharer set.
			if d.Owner < 0 || d.Pending < 0 {
				ns.Err = "dir-M_S+Data-unset"
				return nil
			}
			ns.Dir.Sharers = (1 << uint(d.Owner)) | (1 << uint(d.Pending))
			ns.Dir.Owner = None
			ns.Dir.Pending = None
			ns.Dir.St = DirS
			return nil
		}), true

	default:
		return fire(func(ns *State, _ *ts.Env) error {
			ns.Err = fmt.Sprintf("dir-%s+%s", d.St, m.Type)
			return nil
		}), true
	}
}

// respIndex resolves a directory response action name to its index.
func respIndex(name string) int {
	for i, n := range dirRespActions {
		if n == name {
			return i
		}
	}
	panic("msi: unknown dir response action " + name)
}
