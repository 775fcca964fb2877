// Level-boundary checkpoint/resume.
//
// With Options.CheckpointDir set, a BFS run is snapshotted at level
// boundaries — the one point where the exploration state is
// small and closed: the visited set is a bag of fingerprints, the
// frontier is exactly the next level's states, and no state is "half
// expanded". Boundaries are save *opportunities*, not obligations: the
// throttle (Options.CheckpointEvery; due()) spaces saves by at least
// max(250ms, 20× the previous save's cost), so checkpointing costs at
// most ~5% of wall-clock however large the snapshots grow (E18). A
// checkpoint is a directory
//
//	<CheckpointDir>/ckpt-d<DDDDDDDD>/
//	    visited.bin   8-byte little-endian fingerprints (unordered)
//	    frontier.bin  concatenated ts.KeyAppender state encodings
//	    meta.json     identity + statistics (ckptMeta)
//
// written under a dot-prefixed temp name and committed by a single
// atomic rename after every file is synced — a reader (or a resuming
// run) can never observe a torn checkpoint, and a crash mid-write leaves
// only a .tmp- directory that the next checkpoint sweeps away. After a
// commit, older checkpoints are removed; at most one committed snapshot
// plus one in-flight temp exist at any time.
//
// Resume (Options.Resume) loads the newest committed checkpoint: every
// fingerprint is re-admitted through TryInsert (idempotent, so the spill
// backend's speculative duplicates collapse), the frontier is decoded
// through the system's ts.KeyDecoder, and the run statistics are
// restored — after which exploration proceeds exactly as if it had never
// stopped. The crash-resume harness pins verdict, state, transition and
// depth counts bit-identical between interrupted and uninterrupted runs,
// across worker counts and across the flat and spill backends.
//
// All checkpoint I/O goes through the faultfs seam (Options.FS):
// transient faults are retried with capped backoff (surfaced as
// obs.EventIORetry), hard faults propagate as errors.
package mc

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"verc3/internal/faultfs"
	"verc3/internal/obs"
	"verc3/internal/statespace"
	"verc3/internal/ts"
	"verc3/internal/visited"
)

const (
	// ckptVersion is the on-disk checkpoint schema version. Version 2
	// dropped the string_keys identity field with the string keying path:
	// a version-1 checkpoint is refused rather than resumed under keying it
	// does not record. Version 3 changed the MSI key encoding (a message is
	// a six-byte record, its type a kind byte), and with it every MSI
	// fingerprint and frontier file: a version-2 checkpoint is refused
	// rather than decoded under an encoding it was not written in. Version 4
	// replaced the FNV-1a fingerprint with statespace.OfBytes's
	// word-at-a-time hash: a version-3 checkpoint's stored fingerprints
	// would match no state's new fingerprint, so its visited set would
	// silently deduplicate nothing, and it is refused.
	ckptVersion = 4
	// ckptPrefix names committed checkpoint directories (suffix: zero-padded
	// frontier depth, so lexicographic order is depth order).
	ckptPrefix = "ckpt-d"
	// ckptTmpPrefix marks in-flight (uncommitted) checkpoint directories.
	ckptTmpPrefix = ".tmp-"
	// ckptBufSize is the writer/reader chunk size (a multiple of 8 so
	// fingerprint records never straddle a read on the happy path).
	ckptBufSize = 64 << 10
)

// ckptMeta is the checkpoint's meta.json: the identity block (a resume
// refuses a checkpoint whose keying-relevant options differ — the
// fingerprints would not be comparable) plus the run statistics restored
// on resume. The worker count is deliberately NOT identity: every width
// shares the keying scheme, so a checkpoint taken at one resumes at
// another.
type ckptMeta struct {
	Version  int    `json:"version"`
	System   string `json:"system"`
	Symmetry bool   `json:"symmetry"`
	Backend  string `json:"backend"`

	// Depth is the BFS depth of every frontier state in the snapshot.
	Depth          int    `json:"depth"`
	Fired          int    `json:"fired"`
	WildcardAborts int    `json:"wildcard_aborts"`
	MaxDepth       int    `json:"max_depth"`
	WildcardHit    bool   `json:"wildcard_hit"`
	GoalHit        []bool `json:"goal_hit,omitempty"`
	PeakFrontier   int    `json:"peak_frontier"`
	FrontierLen    int    `json:"frontier_len"`
	VisitedLen     int    `json:"visited_len"`
}

// checkpointer writes and loads level-boundary checkpoints for one run.
type checkpointer struct {
	fs    faultfs.FS
	dir   string
	dec   ts.KeyDecoder
	o     *obs.Collector
	meta0 ckptMeta // identity template; save/load copy and compare it

	// Save throttle (see Options.CheckpointEvery): every is the minimum
	// spacing (<0 = every boundary, 0 = the ckptMinEvery default),
	// lastSave/lastCost track the previous save so its cost can scale the
	// next gap.
	every    time.Duration
	lastSave time.Time
	lastCost time.Duration

	buf []byte // write batching scratch
	enc []byte // per-state AppendKey scratch
}

const (
	// ckptMinEvery is the default minimum spacing between saves.
	ckptMinEvery = 250 * time.Millisecond
	// ckptCostFactor scales the previous save's duration into the minimum
	// gap before the next one: a save costing c delays the next save by at
	// least ckptCostFactor×c, capping checkpoint overhead near
	// 1/ckptCostFactor (~5%) of wall-clock however large snapshots get.
	ckptCostFactor = 20
)

// due reports whether a level boundary should actually save now.
func (cp *checkpointer) due() bool {
	if cp.every < 0 {
		return true
	}
	gap := cp.every
	if gap == 0 {
		gap = ckptMinEvery
	}
	if scaled := cp.lastCost * ckptCostFactor; scaled > gap {
		gap = scaled
	}
	return time.Since(cp.lastSave) >= gap
}

// newCheckpointer validates the run's checkpoint eligibility and builds
// the writer; (nil, nil) when checkpointing is off. The gates exist
// because a checkpoint must round-trip: states need a binary encoding
// (ts.KeyAppender) the system can decode back (ts.KeyDecoder), level
// boundaries must exist (BFS), and the snapshot cannot carry what it does
// not contain (trace parent chains, the masks of a check's usage tracker).
func newCheckpointer(sys ts.System, opt Options, usage UsageTracker) (*checkpointer, error) {
	if opt.CheckpointDir == "" {
		return nil, nil
	}
	if opt.Order != BFS {
		return nil, fmt.Errorf("mc: checkpointing requires BFS order (checkpoints are level-boundary snapshots)")
	}
	if opt.RecordTrace {
		return nil, fmt.Errorf("mc: checkpointing is incompatible with trace recording (parent chains are not snapshotted)")
	}
	if usage != nil {
		return nil, fmt.Errorf("mc: checkpointing is incompatible with usage tracking (masks are not snapshotted)")
	}
	dec, ok := sys.(ts.KeyDecoder)
	if !ok {
		return nil, fmt.Errorf("mc: system %q does not implement ts.KeyDecoder; cannot checkpoint its frontier", sys.Name())
	}
	cp := &checkpointer{
		fs:       faultfs.Or(opt.FS),
		dir:      opt.CheckpointDir,
		dec:      dec,
		o:        opt.Obs,
		every:    opt.CheckpointEvery,
		lastSave: time.Now(),
		meta0: ckptMeta{
			Version:  ckptVersion,
			System:   sys.Name(),
			Symmetry: opt.Symmetry,
			Backend:  opt.Visited.String(),
		},
	}
	if err := cp.retry(faultfs.OpMkdirAll, func() error { return cp.fs.MkdirAll(cp.dir, 0o755) }); err != nil {
		return nil, fmt.Errorf("mc: checkpoint dir %s: %w", cp.dir, err)
	}
	return cp, nil
}

// ioRetryHook adapts a collector into the visited/faultfs retry callback,
// surfacing every retried transient I/O failure as a structured event.
func ioRetryHook(o *obs.Collector) func(op string, attempt int, err error) {
	if o == nil {
		return nil
	}
	return func(op string, attempt int, err error) {
		o.Event(obs.Event{
			Kind:  obs.EventIORetry,
			Op:    op,
			Round: attempt,
			Cause: err.Error(),
			Text:  fmt.Sprintf("io retry %d (%s): %v", attempt, op, err),
		})
	}
}

func (cp *checkpointer) retryHook(op faultfs.Op) func(attempt int, err error) {
	h := ioRetryHook(cp.o)
	if h == nil {
		return nil
	}
	return func(attempt int, err error) { h(string(op), attempt, err) }
}

func (cp *checkpointer) retry(op faultfs.Op, f func() error) error {
	return faultfs.Retry(faultfs.DefaultRetries, cp.retryHook(op), f)
}

// --- Writing -----------------------------------------------------------

// save writes one checkpoint of store and commits it atomically. meta must
// be a copy of meta0 with the run fields filled in; frontier yields the
// snapshot's frontier states in their resume order.
func (cp *checkpointer) save(store visited.Store, meta ckptMeta, frontier func(yield func(ts.State) error) error) error {
	start := time.Now()
	defer func() {
		// Feed the throttle even on a failed save: a struggling disk is the
		// last place to retry immediately.
		cp.lastSave = time.Now()
		cp.lastCost = cp.lastSave.Sub(start)
	}()
	name := fmt.Sprintf("%s%08d", ckptPrefix, meta.Depth)
	tmp := filepath.Join(cp.dir, ckptTmpPrefix+name)
	final := filepath.Join(cp.dir, name)
	cp.fs.RemoveAll(tmp) // leftover of a crashed attempt; best-effort
	if err := cp.retry(faultfs.OpMkdirAll, func() error { return cp.fs.MkdirAll(tmp, 0o755) }); err != nil {
		return fmt.Errorf("mc: checkpoint %s: %w", tmp, err)
	}
	err := cp.writeFile(filepath.Join(tmp, "visited.bin"), func(emit func([]byte) error) error {
		var rec [8]byte
		return store.DumpFingerprints(func(fp statespace.Fingerprint) error {
			binary.LittleEndian.PutUint64(rec[:], uint64(fp))
			return emit(rec[:])
		})
	})
	if err == nil {
		err = cp.writeFile(filepath.Join(tmp, "frontier.bin"), func(emit func([]byte) error) error {
			return frontier(func(s ts.State) error {
				cp.enc = s.AppendKey(cp.enc[:0])
				return emit(cp.enc)
			})
		})
	}
	if err == nil {
		// meta.json is written last inside the temp dir: its presence marks
		// the payload files complete even before the rename (the rename is
		// still the only commit point readers trust).
		var mb []byte
		if mb, err = json.MarshalIndent(&meta, "", "  "); err == nil {
			mb = append(mb, '\n')
			err = cp.writeFile(filepath.Join(tmp, "meta.json"), func(emit func([]byte) error) error {
				return emit(mb)
			})
		}
	}
	if err != nil {
		cp.fs.RemoveAll(tmp)
		return fmt.Errorf("mc: checkpoint %s: %w", tmp, err)
	}
	cp.fs.RemoveAll(final) // a re-run over an old dir may collide; replace
	if err := cp.retry(faultfs.OpRename, func() error { return cp.fs.Rename(tmp, final) }); err != nil {
		cp.fs.RemoveAll(tmp)
		return fmt.Errorf("mc: checkpoint commit %s: %w", final, err)
	}
	cp.sweep(name)
	cp.o.Event(obs.Event{
		Kind:   obs.EventCheckpoint,
		Depth:  meta.Depth,
		States: meta.VisitedLen,
		Text: fmt.Sprintf("checkpoint d=%d committed (%d states, %d frontier)",
			meta.Depth, meta.VisitedLen, meta.FrontierLen),
	})
	return nil
}

// writeFile streams fill's emitted byte runs into a freshly created file,
// batching into ckptBufSize writes, syncing before close. Writes go
// through faultfs.WriteFull: short writes are continued, transient
// faults retried.
func (cp *checkpointer) writeFile(name string, fill func(emit func([]byte) error) error) error {
	var f faultfs.File
	if err := cp.retry(faultfs.OpCreate, func() error {
		var cerr error
		f, cerr = cp.fs.Create(name)
		return cerr
	}); err != nil {
		return err
	}
	buf := cp.buf[:0]
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		werr := faultfs.WriteFull(f, buf, cp.retryHook(faultfs.OpWrite))
		buf = buf[:0]
		return werr
	}
	err := fill(func(p []byte) error {
		buf = append(buf, p...)
		if len(buf) >= ckptBufSize {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	if err == nil {
		err = cp.retry(faultfs.OpSync, f.Sync)
	}
	cerr := f.Close()
	cp.buf = buf[:0]
	if err != nil {
		return err
	}
	return cerr
}

// sweep removes every checkpoint directory other than keep, and any stale
// temp directories. Best-effort: a failed removal costs disk, never
// correctness.
func (cp *checkpointer) sweep(keep string) {
	entries, err := cp.fs.ReadDir(cp.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		if n == keep {
			continue
		}
		if strings.HasPrefix(n, ckptPrefix) || strings.HasPrefix(n, ckptTmpPrefix) {
			cp.fs.RemoveAll(filepath.Join(cp.dir, n))
		}
	}
}

// --- Loading -----------------------------------------------------------

// latest locates the newest committed checkpoint and validates its
// identity against this run's options. ("", nil, nil) when none exists —
// a fresh start, not an error; a checkpoint that exists but cannot be
// read or does not match is an error, never silently ignored.
func (cp *checkpointer) latest() (string, *ckptMeta, error) {
	entries, err := cp.fs.ReadDir(cp.dir)
	if err != nil {
		return "", nil, fmt.Errorf("mc: checkpoint dir %s: %w", cp.dir, err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ckptPrefix) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return "", nil, nil
	}
	sort.Strings(names)
	path := filepath.Join(cp.dir, names[len(names)-1])
	mb, err := cp.readFile(filepath.Join(path, "meta.json"))
	if err != nil {
		return "", nil, fmt.Errorf("mc: checkpoint %s: %w", path, err)
	}
	var meta ckptMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return "", nil, fmt.Errorf("mc: checkpoint %s: meta: %w", path, err)
	}
	if meta.Version != ckptVersion {
		return "", nil, fmt.Errorf("mc: checkpoint %s: version %d, want %d", path, meta.Version, ckptVersion)
	}
	if meta.System != cp.meta0.System || meta.Symmetry != cp.meta0.Symmetry || meta.Backend != cp.meta0.Backend {
		return "", nil, fmt.Errorf(
			"mc: checkpoint %s was taken for system=%s symmetry=%v backend=%s; this run is system=%s symmetry=%v backend=%s",
			path, meta.System, meta.Symmetry, meta.Backend, cp.meta0.System, cp.meta0.Symmetry, cp.meta0.Backend)
	}
	return path, &meta, nil
}

// load restores the newest committed checkpoint into store and returns
// its meta and decoded frontier states; (nil, nil, nil) when none exists.
func (cp *checkpointer) load(store visited.Store) (*ckptMeta, []ts.State, error) {
	path, meta, err := cp.latest()
	if err != nil || meta == nil {
		return meta, nil, err
	}
	// The fingerprints come back in the slot order they were dumped in;
	// tables already at their final size take them in one sequential fill.
	store.Reserve(meta.VisitedLen)
	n := 0
	err = cp.eachFingerprint(filepath.Join(path, "visited.bin"), func(fp uint64) error {
		store.TryInsert(statespace.Fingerprint(fp))
		n++
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("mc: checkpoint %s: %w", path, err)
	}
	if got := store.Len(); got != meta.VisitedLen {
		return nil, nil, fmt.Errorf("mc: checkpoint %s: visited.bin restored %d distinct states (from %d records), meta says %d",
			path, got, n, meta.VisitedLen)
	}
	fb, err := cp.readFile(filepath.Join(path, "frontier.bin"))
	if err != nil {
		return nil, nil, fmt.Errorf("mc: checkpoint %s: %w", path, err)
	}
	states := make([]ts.State, 0, meta.FrontierLen)
	for len(fb) > 0 {
		s, rest, derr := cp.dec.DecodeKey(fb)
		if derr != nil {
			return nil, nil, fmt.Errorf("mc: checkpoint %s: frontier state %d: %w", path, len(states), derr)
		}
		states = append(states, s)
		fb = rest
	}
	if len(states) != meta.FrontierLen {
		return nil, nil, fmt.Errorf("mc: checkpoint %s: frontier.bin holds %d states, meta says %d",
			path, len(states), meta.FrontierLen)
	}
	cp.o.Event(obs.Event{
		Kind:   obs.EventResume,
		Depth:  meta.Depth,
		States: meta.VisitedLen,
		Text: fmt.Sprintf("resumed from checkpoint d=%d (%d states, %d frontier)",
			meta.Depth, meta.VisitedLen, meta.FrontierLen),
	})
	return meta, states, nil
}

// readFile reads a whole (small: meta, one frontier level) file through
// the seam with transient-retry on every chunk.
func (cp *checkpointer) readFile(name string) ([]byte, error) {
	f, err := cp.openFile(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	chunk := make([]byte, ckptBufSize)
	var off int64
	for {
		n, eof, err := cp.readAt(f, chunk, off)
		if err != nil {
			return nil, err
		}
		out = append(out, chunk[:n]...)
		off += int64(n)
		if eof || n == 0 {
			return out, nil
		}
	}
}

// eachFingerprint streams visited.bin without materializing it: spilled
// runs can dwarf RAM, and the resume path must not undo the spill
// backend's memory bound.
func (cp *checkpointer) eachFingerprint(name string, yield func(fp uint64) error) error {
	f, err := cp.openFile(name)
	if err != nil {
		return err
	}
	defer f.Close()
	chunk := make([]byte, ckptBufSize)
	buf := make([]byte, 0, ckptBufSize+8)
	var off int64
	for {
		n, eof, err := cp.readAt(f, chunk, off)
		if err != nil {
			return err
		}
		off += int64(n)
		buf = append(buf, chunk[:n]...)
		i := 0
		for ; i+8 <= len(buf); i += 8 {
			if err := yield(binary.LittleEndian.Uint64(buf[i:])); err != nil {
				return err
			}
		}
		buf = append(buf[:0], buf[i:]...)
		if eof || n == 0 {
			if len(buf) != 0 {
				return fmt.Errorf("visited.bin: %d trailing bytes (truncated record)", len(buf))
			}
			return nil
		}
	}
}

func (cp *checkpointer) openFile(name string) (faultfs.File, error) {
	var f faultfs.File
	err := cp.retry(faultfs.OpOpen, func() error {
		var oerr error
		f, oerr = cp.fs.Open(name)
		return oerr
	})
	return f, err
}

// readAt is one retried chunk read; eof reports end-of-file (not an
// error: the loop drains the final partial chunk first).
func (cp *checkpointer) readAt(f faultfs.File, p []byte, off int64) (n int, eof bool, err error) {
	err = cp.retry(faultfs.OpReadAt, func() error {
		var rerr error
		n, rerr = f.ReadAt(p, off)
		if rerr == io.EOF {
			eof = true
			return nil
		}
		return rerr
	})
	return n, eof, err
}

// --- Kernel glue -------------------------------------------------------

// resume seeds w's output — the first level — from the newest committed
// checkpoint; false when resume is off or no checkpoint exists (fresh
// start). The restored level's depth makes the next boundary fire at
// meta.Depth+1 exactly as it would have in the uninterrupted run.
func (e *explorer) resume(w *worker) (bool, error) {
	if e.ckpt == nil || !e.opt.Resume {
		return false, nil
	}
	meta, states, err := e.ckpt.load(e.visited)
	if err != nil || meta == nil {
		return false, err
	}
	e.res.Resumed = true
	e.admitted = e.visited.Len()
	e.res.Stats.FiredTransitions = meta.Fired
	e.res.Stats.WildcardAborts = meta.WildcardAborts
	e.res.Stats.MaxDepth = meta.MaxDepth
	copy(e.goalHit, meta.GoalHit)
	e.peak = meta.PeakFrontier
	e.depth = meta.Depth
	for _, s := range states {
		e.push(w, item{state: s})
	}
	return true, nil
}

// checkpoint snapshots the run between levels, when the throttle says a
// save is due: the level just gathered is the frontier, at e.depth, and is
// written block by block in level order.
func (e *explorer) checkpoint() error {
	if e.ckpt == nil || !e.ckpt.due() {
		return nil
	}
	meta := e.ckpt.meta0
	meta.Depth = e.depth
	meta.Fired = e.res.Stats.FiredTransitions
	meta.WildcardAborts = e.res.Stats.WildcardAborts
	meta.MaxDepth = e.res.Stats.MaxDepth
	meta.WildcardHit = e.res.WildcardHit
	meta.GoalHit = append([]bool(nil), e.goalHit...)
	meta.PeakFrontier = e.peak
	meta.FrontierLen = e.levelLen
	meta.VisitedLen = e.visited.Len()
	return e.ckpt.save(e.visited, meta, func(yield func(ts.State) error) error {
		for _, b := range e.level.list {
			for i := range b {
				if err := yield(b[i].state); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
