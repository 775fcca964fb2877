package visited

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"verc3/internal/faultfs"
	"verc3/internal/statespace"
)

const (
	// DefaultSpillMem is the Spill backend's in-RAM tier budget when
	// Config.SpillMem <= 0: 64 MiB holds ~8.4M fingerprints before the
	// first run is written.
	DefaultSpillMem = 64 << 20
	// spillStripes is the fixed stripe count of the in-RAM tier. Spill's
	// hot path is bounded by disk probes, not lock contention, so a small
	// count keeps the budget arithmetic simple.
	spillStripes = 8
	// spillFenceStride is the fingerprint count per indexed run block: one
	// in-RAM fence per 2KiB of run file, so a membership probe costs one
	// fence binary search plus a single 2KiB ReadAt.
	spillFenceStride = 256
	// spillMaxRuns caps the live run count between level boundaries: a
	// budget-triggered flush that would exceed it merges first, bounding
	// the per-probe ReadAt count even for runs that never report level
	// boundaries (DFS).
	spillMaxRuns = 8
)

// spillBlockPool recycles the per-probe run-block read buffers.
var spillBlockPool = sync.Pool{
	New: func() any {
		b := make([]byte, spillFenceStride*8)
		return &b
	},
}

// spillRun is one immutable sorted run file: 8-byte little-endian
// fingerprints in ascending order. fences holds the first fingerprint of
// every spillFenceStride-sized block, so contains() needs exactly one
// disk read. Once written a run is only ever read (ReadAt is safe for
// concurrent probes) until a merge retires it.
type spillRun struct {
	f      faultfs.File
	name   string
	n      int64
	fences []uint64
}

// contains reports whether fp is in the run. buf must hold at least one
// block (spillFenceStride*8 bytes).
func (r *spillRun) contains(fp uint64, buf []byte) (bool, error) {
	// First block whose fence exceeds fp starts past any possible home.
	b := sort.Search(len(r.fences), func(i int) bool { return r.fences[i] > fp }) - 1
	if b < 0 {
		return false, nil
	}
	lo := int64(b) * spillFenceStride
	n := r.n - lo
	if n > spillFenceStride {
		n = spillFenceStride
	}
	block := buf[:n*8]
	if _, err := r.f.ReadAt(block, lo*8); err != nil {
		return false, fmt.Errorf("visited: spill run %s: %w", r.name, err)
	}
	i := sort.Search(int(n), func(i int) bool {
		return binary.LittleEndian.Uint64(block[i*8:]) >= fp
	})
	return i < int(n) && binary.LittleEndian.Uint64(block[i*8:]) == fp, nil
}

func (r *spillRun) bytes() int64 { return r.n * 8 }

// runWriter streams an ascending fingerprint sequence into a new run file,
// building the fence index as it goes.
type runWriter struct {
	s      *spill
	f      faultfs.File
	name   string
	buf    []byte
	n      int64
	fences []uint64
}

func (s *spill) newRunWriter() (*runWriter, error) {
	if s.dir == "" {
		var dir string
		err := s.retry(faultfs.OpMkdirTemp, func() error {
			var derr error
			dir, derr = s.fs.MkdirTemp(s.parent, "verc3-spill-*")
			return derr
		})
		if err != nil {
			return nil, fmt.Errorf("visited: spill dir: %w", err)
		}
		s.dir = dir
	}
	name := filepath.Join(s.dir, fmt.Sprintf("run-%06d", s.seq))
	s.seq++
	var f faultfs.File
	err := s.retry(faultfs.OpCreate, func() error {
		var cerr error
		f, cerr = s.fs.Create(name)
		return cerr
	})
	if err != nil {
		return nil, fmt.Errorf("visited: spill run: %w", err)
	}
	return &runWriter{s: s, f: f, name: name, buf: make([]byte, 0, 1<<16)}, nil
}

func (w *runWriter) add(fp uint64) error {
	if w.n%spillFenceStride == 0 {
		w.fences = append(w.fences, fp)
	}
	w.n++
	w.buf = binary.LittleEndian.AppendUint64(w.buf, fp)
	if len(w.buf) == cap(w.buf) {
		if err := faultfs.WriteFull(w.f, w.buf, w.s.retryHook(faultfs.OpWrite)); err != nil {
			return fmt.Errorf("visited: spill run %s: %w", w.name, err)
		}
		w.buf = w.buf[:0]
	}
	return nil
}

func (w *runWriter) finish() (*spillRun, error) {
	if len(w.buf) > 0 {
		if err := faultfs.WriteFull(w.f, w.buf, w.s.retryHook(faultfs.OpWrite)); err != nil {
			w.abort()
			return nil, fmt.Errorf("visited: spill run %s: %w", w.name, err)
		}
	}
	return &spillRun{f: w.f, name: w.name, n: w.n, fences: w.fences}, nil
}

func (w *runWriter) abort() {
	w.f.Close()
	w.s.fs.Remove(w.name)
}

// spill is the SWAP-style two-level exact backend: a Robin Hood flat tier
// in RAM (budgeted by Config.SpillMem) overflows to sorted fingerprint
// runs on disk, merged and deduplicated at BFS level boundaries
// (LevelMarker). TryInsert stays exact — a fingerprint admitted once is
// rejected forever, whether it currently lives in RAM or on disk — so the
// backend serves the memory-bounded-but-exact regime: peak RAM is the
// fixed tier budget plus the fence index (8 bytes per 2KiB spilled) while
// the state count is bounded only by disk.
//
// The "bounded RAM" claim is steady-state: during a flush the drained
// fingerprint slice coexists with the (deliberately retained) tier
// tables, so the transient peak is ~1.75× the budget — size SpillMem
// accordingly.
//
// One implementation serves both store flavours. The insert path holds
// the structural read-lock for the whole RAM-probe + disk-probe window,
// which is what makes the answer exact under concurrency: a flush (which
// moves RAM residents onto disk) takes the write lock, so no racing
// insert can observe a fingerprint in neither tier. Within the read-lock
// the striped RAM tier admits exactly one winner per fingerprint; only
// that winner pays disk probes.
type spill struct {
	mu      sync.RWMutex // insert: RLock; flush/merge/Close: Lock
	stripes []stripe
	flushAt int // per-stripe used threshold that triggers a flush

	parent  string     // configured parent dir ("" = OS temp dir)
	dir     string     // created lazily at the first flush, removed by Close
	fs      faultfs.FS // the I/O seam; faultfs.OS in production
	onRetry func(op string, attempt int, err error)
	seq     int
	runs    []*spillRun

	count atomic.Int64
	errv  atomic.Pointer[error] // first I/O failure, sticky
}

// retryHook adapts the configured OnRetry callback to faultfs.Retry's
// signature for one named operation.
func (s *spill) retryHook(op faultfs.Op) func(attempt int, err error) {
	if s.onRetry == nil {
		return nil
	}
	return func(attempt int, err error) { s.onRetry(string(op), attempt, err) }
}

// retry runs op through faultfs.Retry with the backend's retry budget and
// telemetry hook: transient faults (EINTR, injected glitches) are absorbed
// with capped backoff, hard faults surface to the caller and go sticky via
// fail().
func (s *spill) retry(op faultfs.Op, f func() error) error {
	return faultfs.Retry(faultfs.DefaultRetries, s.retryHook(op), f)
}

func newSpill(cfg Config) *spill {
	budget := cfg.SpillMem
	if budget <= 0 {
		budget = DefaultSpillMem
	}
	// Largest power-of-two slot count per stripe that keeps the whole tier
	// within budget; the flush threshold sits at 3/4 so the table reaches
	// its final size (growth stops below 15/16 of half) but never doubles
	// past it.
	slots := budget / 8 / spillStripes
	slotsPow := flatMinStripeSlots
	for int64(slotsPow)*2 <= slots {
		slotsPow *= 2
	}
	return &spill{
		stripes: make([]stripe, spillStripes),
		flushAt: slotsPow * 3 / 4,
		parent:  cfg.SpillDir,
		fs:      faultfs.Or(cfg.FS),
		onRetry: cfg.OnRetry,
	}
}

func (s *spill) fail(err error) {
	if err != nil {
		s.errv.CompareAndSwap(nil, &err)
	}
}

// Err returns the first I/O failure, if any. After a failure the backend
// stops spilling and keeps everything in RAM — still exact, no longer
// budget-bounded — and the checker surfaces the error.
func (s *spill) Err() error {
	if p := s.errv.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *spill) TryInsert(fp statespace.Fingerprint) bool {
	s.mu.RLock()
	st := &s.stripes[uint64(fp)&(spillStripes-1)]
	st.mu.Lock()
	fresh := st.t.tryInsert(uint64(fp), flatMinStripeSlots)
	needFlush := fresh && st.t.used >= s.flushAt
	st.mu.Unlock()
	if fresh && len(s.runs) > 0 && s.runsContain(uint64(fp)) {
		// Already spilled: the speculative RAM copy stays (it answers the
		// next probe even faster) and the eventual merge deduplicates it.
		fresh = false
	}
	s.mu.RUnlock()
	if fresh {
		s.count.Add(1)
	}
	if needFlush {
		s.flush()
	}
	return fresh
}

// runsContain probes every live run. Caller holds the read lock.
func (s *spill) runsContain(fp uint64) bool {
	bufp := spillBlockPool.Get().(*[]byte)
	defer spillBlockPool.Put(bufp)
	for _, r := range s.runs {
		var found bool
		err := s.retry(faultfs.OpReadAt, func() error {
			var perr error
			found, perr = r.contains(fp, *bufp)
			return perr
		})
		if err != nil {
			// Treat as absent and record the failure: the run's answer is
			// gone, so the whole exploration is invalidated via Err().
			s.fail(err)
			return false
		}
		if found {
			return true
		}
	}
	return false
}

// flush drains the RAM tier into a new sorted run.
func (s *spill) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Err() != nil {
		return // disk is gone; keep accumulating in RAM, still exact
	}
	over := false
	total := 0
	for i := range s.stripes {
		total += s.stripes[i].t.len()
		over = over || s.stripes[i].t.used >= s.flushAt
	}
	if !over {
		return // a racing flush already drained the tier
	}
	fps := make([]uint64, 0, total)
	for i := range s.stripes {
		fps = s.stripes[i].t.drain(fps)
	}
	slices.Sort(fps)
	run, err := s.writeRun(fps)
	if err != nil {
		// The drained fingerprints must not be lost: put them back (the
		// tables are still allocated) and stop spilling.
		for _, fp := range fps {
			s.stripes[uint64(fp)&(spillStripes-1)].t.tryInsert(fp, flatMinStripeSlots)
		}
		s.fail(err)
		return
	}
	s.runs = append(s.runs, run)
	if len(s.runs) >= spillMaxRuns {
		s.mergeLocked()
	}
}

// writeRun streams an already-sorted fingerprint slice to disk. Caller
// holds the write lock.
func (s *spill) writeRun(fps []uint64) (*spillRun, error) {
	w, err := s.newRunWriter()
	if err != nil {
		return nil, err
	}
	for _, fp := range fps {
		if err := w.add(fp); err != nil {
			w.abort()
			return nil, err
		}
	}
	return w.finish()
}

// mergeLocked replaces all live runs with one merged, deduplicated run.
// Caller holds the write lock.
func (s *spill) mergeLocked() {
	if len(s.runs) < 2 || s.Err() != nil {
		return
	}
	w, err := s.newRunWriter()
	if err != nil {
		s.fail(err)
		return
	}
	heads := make([]runCursor, len(s.runs))
	for i, r := range s.runs {
		heads[i] = runCursor{r: r}
		if err := s.retry(faultfs.OpReadAt, heads[i].advance); err != nil {
			w.abort()
			s.fail(err)
			return
		}
	}
	var last uint64
	havePrev := false
	for {
		// len(runs) <= spillMaxRuns, so a linear min scan beats heap
		// bookkeeping.
		min := -1
		for i := range heads {
			if heads[i].ok && (min < 0 || heads[i].cur < heads[min].cur) {
				min = i
			}
		}
		if min < 0 {
			break
		}
		fp := heads[min].cur
		if err := s.retry(faultfs.OpReadAt, heads[min].advance); err != nil {
			w.abort()
			s.fail(err)
			return
		}
		if havePrev && fp == last {
			continue // duplicate across runs (re-admitted RAM copy)
		}
		last, havePrev = fp, true
		if err := w.add(fp); err != nil {
			w.abort()
			s.fail(err)
			return
		}
	}
	merged, err := w.finish()
	if err != nil {
		s.fail(err)
		return
	}
	for _, r := range s.runs {
		r.f.Close()
		s.fs.Remove(r.name)
	}
	s.runs = []*spillRun{merged}
}

// runCursor streams one run during a merge.
type runCursor struct {
	r   *spillRun
	off int64
	buf []byte
	pos int
	cur uint64
	ok  bool
}

func (c *runCursor) advance() error {
	if c.pos >= len(c.buf) {
		if c.off >= c.r.n*8 {
			c.ok = false
			return nil
		}
		if c.buf == nil {
			c.buf = make([]byte, 1<<16)
		}
		n := c.r.n*8 - c.off
		if n > int64(len(c.buf)) {
			n = int64(len(c.buf))
		}
		if _, err := c.r.f.ReadAt(c.buf[:n], c.off); err != nil {
			c.ok = false
			return fmt.Errorf("visited: spill merge %s: %w", c.r.name, err)
		}
		c.buf = c.buf[:n]
		c.off += n
		c.pos = 0
	}
	c.cur = binary.LittleEndian.Uint64(c.buf[c.pos:])
	c.pos += 8
	c.ok = true
	return nil
}

// DumpFingerprints walks the RAM tier's stripes under their locks, then
// streams every disk run front to back. The structural read lock is held
// throughout so no flush can move residents between tiers mid-dump. A fingerprint that was spilled and speculatively
// re-admitted to RAM (see TryInsert) is yielded from both tiers; consumers
// re-insert through TryInsert, which deduplicates, so the double report is
// harmless.
func (s *spill) DumpFingerprints(yield func(fp statespace.Fingerprint) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		err := sp.t.each(func(fp uint64) error { return yield(statespace.Fingerprint(fp)) })
		sp.mu.Unlock()
		if err != nil {
			return err
		}
	}
	for _, r := range s.runs {
		c := runCursor{r: r}
		for {
			if err := s.retry(faultfs.OpReadAt, c.advance); err != nil {
				s.fail(err)
				return err
			}
			if !c.ok {
				break
			}
			if err := yield(statespace.Fingerprint(c.cur)); err != nil {
				return err
			}
		}
	}
	return nil
}

// EndLevel implements LevelMarker: at a BFS level boundary all live runs
// are merged into one, so the steady-state probe cost is a single ReadAt.
func (s *spill) EndLevel() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked()
	return s.Err()
}

// Close removes every run file and the backend's temp directory. It
// returns the first I/O failure of the run's lifetime, so runs that
// never hit a level boundary (DFS) still surface spill errors.
func (s *spill) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		r.f.Close()
		s.fs.Remove(r.name)
	}
	s.runs = nil
	if s.dir != "" {
		s.fs.RemoveAll(s.dir)
		s.dir = ""
	}
	return s.Err()
}

func (s *spill) Len() int { return int(s.count.Load()) }

// Stats reports as Bytes the in-RAM footprint: the striped tier plus the
// fence index. Disk bytes are reported separately (SpilledBytes) — bounding
// the former is the whole point of the backend.
func (s *spill) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Backend: Spill.String(),
		States:  s.Len(),
		Bytes:   int64(len(s.stripes)) * int64(unsafe.Sizeof(stripe{})),
	}
	for i := range s.stripes {
		sp := &s.stripes[i]
		sp.mu.Lock()
		st.Bytes += sp.t.bytes()
		st.Grows += sp.t.grows
		sp.mu.Unlock()
	}
	for _, r := range s.runs {
		st.Bytes += int64(len(r.fences)) * 8
		st.SpilledBytes += r.bytes()
	}
	st.SpillRuns = len(s.runs)
	return st
}
