// Package visited provides the visited-set storage layer of the model
// checker: every exploration deduplicates states through a Store keyed by
// 64-bit statespace.Fingerprints, and the backend behind the Store decides
// where those fingerprints live.
//
// Two backends are provided, both exact:
//
//   - Flat: an open-addressing table of raw 8-byte fingerprints with Robin
//     Hood probing and power-of-two growth — Murphi-style hash compaction
//     without the compaction, since the full fingerprint is kept. Robin
//     Hood displacement keeps probe tails short enough to run the table at
//     15/16 load before growing. The default backend.
//   - Spill: a SWAP-style two-level store — the Robin Hood flat tier in
//     RAM, budgeted by Config.SpillMem, overflowing to sorted fingerprint
//     runs on disk that are merged and deduplicated at BFS level
//     boundaries (LevelMarker). Peak RAM is bounded by the tier budget plus
//     a small fence index.
//
// Exact means a backend admits precisely the distinct fingerprints it is
// offered, so Flat and Spill are interchangeable bit-for-bit (the zoo
// equivalence tests pin this). Whether distinct states get distinct
// fingerprints is a property of the keying scheme, not of the store (see
// package statespace and the exactness oracle in internal/ts/tstest).
//
// Stores come in two flavours: New builds a single-goroutine store for
// one-worker explorations (no locks on the insert path), and
// NewConcurrent builds a goroutine-safe store for multi-worker ones
// (lock-striped for Flat, a read-write structural lock over striped tables
// for Spill). Every backend's TryInsert is an exact expansion-ownership
// claim under its concurrent flavour: exactly one of any number of racing
// inserts of the same fingerprint is told it was first.
package visited

import (
	"fmt"

	"verc3/internal/faultfs"
	"verc3/internal/statespace"
)

// Kind selects the visited-set backend. The zero value is Flat, the
// default across the checker.
type Kind int

const (
	// Flat is the open-addressing fingerprint table (the default).
	Flat Kind = iota
	// Spill is the two-level RAM+disk store (RAM-bounded).
	Spill
)

// String returns the backend name as accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case Flat:
		return "flat"
	case Spill:
		return "spill"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a backend name as used by the cmd/ -visited flags.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "flat":
		return Flat, nil
	case "spill":
		return Spill, nil
	default:
		return 0, fmt.Errorf("visited: unknown backend %q (have flat, spill)", s)
	}
}

// flatStripes is the stripe count of the concurrent Flat backend: its
// critical sections are a handful of probes, so 64 stripes suffice and
// keep the small-run footprint low.
const flatStripes = 64

// Config selects and sizes a backend.
type Config struct {
	// Kind is the backend (zero value = Flat).
	Kind Kind
	// SpillMem is the Spill backend's in-RAM tier budget in bytes (<= 0 =
	// DefaultSpillMem). The tier flushes to a sorted on-disk run when it
	// approaches the budget; a floor of a few KiB applies (the striped
	// tables never shrink below their minimum slot counts).
	SpillMem int64
	// SpillDir is the parent directory for the Spill backend's run files
	// ("" = the OS temp dir). A fresh subdirectory is created lazily at
	// the first flush and removed by Close.
	SpillDir string
	// FS is the filesystem seam the Spill backend's run I/O goes through
	// (nil = the real OS). Tests inject faults here; production code never
	// sets it.
	FS faultfs.FS
	// OnRetry, when non-nil, observes every transient I/O failure the
	// Spill backend retries (telemetry hook; op names the operation).
	OnRetry func(op string, attempt int, err error)
}

// Stats is a backend's self-report, surfaced through statespace.Stats so
// -stats outputs and experiments can compare storage layers.
type Stats struct {
	// Backend is the Kind name.
	Backend string
	// States is Len(): distinct fingerprints admitted.
	States int
	// Bytes is the measured in-RAM storage footprint: the slot arrays and
	// stripe structs for Flat, tier tables plus fence index for Spill.
	Bytes int64
	// Grows counts table growths (Flat, Spill's RAM tier) — each one is a
	// full rehash.
	Grows int
	// SpilledBytes is the Spill backend's on-disk footprint: the summed
	// size of its live run files. Zero for RAM-only backends.
	SpilledBytes int64
	// SpillRuns is the number of live run files (1 after a level-boundary
	// merge; up to spillMaxRuns between boundaries).
	SpillRuns int
}

// Store is the visited-set contract shared by every exploration.
// TryInsert is the only hot-path method; the rest are end-of-run and
// level-boundary hooks.
type Store interface {
	// TryInsert admits fp and reports whether it was absent — i.e. the
	// caller is the first to visit this state and owns its expansion. At
	// most one of any set of racing inserts of the same fingerprint is
	// told it was first, for every backend.
	TryInsert(fp statespace.Fingerprint) bool
	// Len returns the number of fingerprints admitted. Like Stats it may
	// lock every stripe in turn, so it too belongs between levels or after
	// the run.
	Len() int
	// Stats returns the full self-report, footprint included. It may lock
	// every stripe in turn: call it between levels or after the run, not on
	// the insert path.
	Stats() Stats
	// DumpFingerprints calls yield on every admitted fingerprint, in
	// unspecified order and possibly more than once (re-inserting through
	// TryInsert deduplicates), without disturbing the store — the checkpoint
	// writer's snapshot hook. A non-nil error from yield, or from the
	// backend's own I/O, stops the walk and is returned. Call it where no
	// insert runs concurrently (a level boundary).
	DumpFingerprints(yield func(fp statespace.Fingerprint) error) error
}

// LevelMarker is implemented by backends that reorganize storage at BFS
// level boundaries: the checker calls EndLevel between BFS levels,
// and Spill uses it to merge its run files down to one. A non-nil error
// aborts the exploration (the store's answers can no longer be trusted).
// Backends without level-boundary work simply don't implement it.
type LevelMarker interface {
	EndLevel() error
}

// Resetter is implemented by backends that can be emptied in place: a
// checker session (mc.Session) Resets the store of its previous check
// instead of building the next one. After Reset the store is
// indistinguishable from a new one — same answers, same Stats — it only
// got there without allocating. Backends for which that is not cheap (they
// own files, or a fixed multi-megabyte array) don't implement it and are
// rebuilt.
type Resetter interface {
	Reset()
}

// New builds a single-goroutine store: a one-worker run's insert path
// stays lock-free. The returned store must not be used concurrently
// (except Spill, which is always goroutine-safe).
func New(cfg Config) Store {
	if cfg.Kind == Spill {
		return newSpill(cfg)
	}
	return newFlat()
}

// NewConcurrent builds a goroutine-safe store for multi-worker runs.
func NewConcurrent(cfg Config) Store {
	if cfg.Kind == Spill {
		return newSpill(cfg)
	}
	return newStripedFlat()
}
