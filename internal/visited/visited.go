// Package visited provides the pluggable visited-set storage layer of the
// model checker: every exploration deduplicates states through a
// Store keyed by 64-bit statespace.Fingerprints, and the backend behind the
// Store decides the memory/exactness trade of the whole run.
//
// Four backends are provided:
//
//   - Map: Go maps of fingerprints, lock-striped into shards for concurrent
//     insertion (the checker's original visited set). Exact. The runtime's
//     map machinery costs roughly 2× the 8-byte fingerprint per state.
//   - Flat: an open-addressing table of raw 8-byte fingerprints with Robin
//     Hood probing and power-of-two growth — Murphi-style hash compaction
//     without the compaction, since the full fingerprint is kept. Robin
//     Hood displacement keeps probe tails short enough to run the table at
//     15/16 load before growing. Exact, and the default backend: same
//     dedupe semantics as Map at a fraction of the footprint and
//     allocation count.
//   - Spill: a SWAP-style two-level store — the Robin Hood flat tier in
//     RAM, budgeted by Config.SpillMem, overflowing to sorted fingerprint
//     runs on disk that are merged and deduplicated at BFS level
//     boundaries (LevelMarker). Exact, with peak RAM bounded by the tier
//     budget plus a small fence index: the memory-bounded-but-exact
//     regime that bitstate cannot serve.
//   - Bitstate: SPIN-style bitstate hashing. K derived bit positions per
//     fingerprint — all within one 64-bit word, so a single CAS publishes
//     them — are set in a bit array of fixed size (BitstateMB); a state
//     whose bits are all already set is treated as visited. The memory
//     budget never grows, but distinct states can collide on all K bits
//     and be omitted from the search — the backend is inexact and reports
//     an omission-probability estimate (Stats.OmissionProb).
//
// Exactness here is relative to fingerprints: an exact backend admits
// precisely the distinct fingerprints it is offered, so Map, Flat and
// Spill are interchangeable bit-for-bit (the zoo equivalence tests pin
// this), while Bitstate may reject never-seen fingerprints. The separate,
// much smaller risk that two distinct states collide on their 64-bit
// fingerprint is a property of the keying scheme (see package statespace),
// not the store.
//
// Stores come in two flavours: New builds a single-goroutine store for
// one-worker explorations (no locks on the insert path), and
// NewConcurrent builds a goroutine-safe store for multi-worker ones
// (lock-striped for Map and Flat, lock-free atomics for Bitstate, a
// read-write structural lock over striped tables for Spill). Every
// backend's TryInsert is an exact expansion-ownership claim under its
// concurrent flavour: exactly one of any number of racing inserts of the
// same fingerprint is told it was first (for Bitstate this is the
// single-CAS completion rule; omission of never-seen fingerprints remains
// its documented lossiness).
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
	// Flat is the open-addressing fingerprint table (exact, default).
	Flat Kind = iota
	// Map is the Go-map backend (exact; the original implementation).
	Map
	// Bitstate is SPIN-style bitstate hashing (fixed memory, inexact).
	Bitstate
	// Spill is the two-level RAM+disk store (exact, RAM-bounded).
	Spill
)

// String returns the backend name as accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case Flat:
		return "flat"
	case Map:
		return "map"
	case Bitstate:
		return "bitstate"
	case Spill:
		return "spill"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Exact reports whether the backend admits exactly the distinct
// fingerprints offered to it. Inexact backends (Bitstate) can omit states,
// so exploration results over them are lower bounds.
func (k Kind) Exact() bool { return k != Bitstate }

// ParseKind parses a backend name as used by the cmd/ -visited flags.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "flat":
		return Flat, nil
	case "map":
		return Map, nil
	case "bitstate":
		return Bitstate, nil
	case "spill":
		return Spill, nil
	default:
		return 0, fmt.Errorf("visited: unknown backend %q (have flat, map, bitstate, spill)", s)
	}
}

const (
	// mapShards is the shard count of the concurrent Map backend: 256
	// shards keep the expected queue depth per shard lock near zero even
	// with dozens of exploration workers.
	mapShards = 256
	// flatStripes is the stripe count of the concurrent Flat backend: its
	// critical sections are a handful of probes, so 64 stripes suffice and
	// keep the small-run footprint low.
	flatStripes = 64
	// DefaultBitstateMB is the Bitstate bit-array budget when
	// Config.BitstateMB <= 0.
	DefaultBitstateMB = 64
	// DefaultBitstateHashes is the number of derived bit positions (K)
	// set per fingerprint when Config.BitstateHashes <= 0. SPIN's classic
	// choice is 2–3; 3 keeps the omission probability lower for the same
	// budget until the array passes ~25% fill. All K positions live in one
	// 64-bit word (see bitstate), so K must stay well below 64.
	DefaultBitstateHashes = 3
)

// Config selects and sizes a backend.
type Config struct {
	// Kind is the backend (zero value = Flat).
	Kind Kind
	// BitstateMB is the Bitstate bit-array budget in MiB (<= 0 =
	// DefaultBitstateMB). The array is allocated once and never grows.
	BitstateMB int
	// BitstateHashes is Bitstate's K (<= 0 = DefaultBitstateHashes).
	BitstateHashes int
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
	// States is Len(): distinct fingerprints admitted (for Bitstate, the
	// number of TryInsert calls that were treated as new).
	States int
	// Bytes is the measured in-RAM storage footprint: exact array sizes
	// for Flat and Bitstate, tier tables plus fence index for Spill, a
	// documented geometry model for Map (Go maps cannot be introspected
	// portably; see mapBytes).
	Bytes int64
	// Exact mirrors Kind.Exact.
	Exact bool
	// Grows counts table growths (Flat, Spill's RAM tier) — each one is a
	// full rehash.
	Grows int
	// BitsSet is the number of one-bits in the Bitstate array.
	BitsSet int64
	// OmissionProb is Bitstate's estimate of the probability that a probe
	// of a never-seen fingerprint reports "already visited" — the
	// per-state omission risk at the current fill, (BitsSet/m)^K. Zero for
	// exact backends.
	OmissionProb float64
	// SpilledBytes is the Spill backend's on-disk footprint: the summed
	// size of its live run files. Zero for RAM-only backends.
	SpilledBytes int64
	// SpillRuns is the number of live run files (1 after a level-boundary
	// merge; up to spillMaxRuns between boundaries).
	SpillRuns int
}

// Store is the visited-set contract shared by every exploration.
// TryInsert is the only hot-path method; the rest are end-of-run hooks.
type Store interface {
	// TryInsert admits fp and reports whether it was absent — i.e. the
	// caller is the first to visit this state and owns its expansion. At
	// most one of any set of racing inserts of the same fingerprint is
	// told it was first, for every backend. For Bitstate, "absent" is
	// additionally probabilistic: a false report omits the state.
	TryInsert(fp statespace.Fingerprint) bool
	// Len returns the number of fingerprints admitted.
	Len() int
	// Stats returns the full self-report, footprint and exactness included.
	// It may lock every stripe in turn: call it between levels or after the
	// run, not on the insert path.
	Stats() Stats
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

// Dumper is implemented by exact backends that can enumerate every admitted
// fingerprint without disturbing the store — the checkpoint writer's
// snapshot hook. yield is called once per fingerprint in unspecified order;
// a non-nil error from yield (or from the backend's own I/O, for Spill)
// stops the walk and is returned. Bitstate cannot implement it: bit
// positions are not invertible to fingerprints.
type Dumper interface {
	DumpFingerprints(yield func(fp statespace.Fingerprint) error) error
}

// New builds a single-goroutine store: a one-worker run's insert path
// stays lock-free. The returned store must not be used concurrently
// (except Bitstate and Spill, which are always goroutine-safe).
func New(cfg Config) Store {
	switch cfg.Kind {
	case Map:
		return newMapStore()
	case Bitstate:
		return newBitstate(cfg)
	case Spill:
		return newSpill(cfg)
	default:
		return newFlat()
	}
}

// NewConcurrent builds a goroutine-safe store for multi-worker runs.
func NewConcurrent(cfg Config) Store {
	switch cfg.Kind {
	case Map:
		return newShardedMap()
	case Bitstate:
		return newBitstate(cfg)
	case Spill:
		return newSpill(cfg)
	default:
		return newStripedFlat()
	}
}
