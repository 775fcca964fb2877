package visited

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"verc3/internal/statespace"
)

// mapStore is the single-goroutine Map backend: one Go map, no locks.
type mapStore struct {
	m map[statespace.Fingerprint]struct{}
}

func newMapStore() *mapStore {
	return &mapStore{m: make(map[statespace.Fingerprint]struct{})}
}

func (s *mapStore) TryInsert(fp statespace.Fingerprint) bool {
	if _, dup := s.m[fp]; dup {
		return false
	}
	s.m[fp] = struct{}{}
	return true
}

func (s *mapStore) Len() int { return len(s.m) }

func (s *mapStore) Stats() Stats {
	return Stats{Backend: Map.String(), States: s.Len(), Bytes: mapBytes(len(s.m)), Exact: true}
}

// DumpFingerprints implements Dumper. Iteration order is the map's
// (arbitrary); checkpoint readers re-insert, so order never matters.
func (s *mapStore) DumpFingerprints(yield func(fp statespace.Fingerprint) error) error {
	for fp := range s.m {
		if err := yield(fp); err != nil {
			return err
		}
	}
	return nil
}

// mapBytes models the footprint of a Go map[Fingerprint]struct{} with n
// entries. Go offers no way to measure a map's memory, so this is the
// documented geometry of the runtime's swiss-table maps (Go 1.24+): groups
// of 8 slots, 8-byte key + 1 control byte per slot, growth past 7/8 load,
// power-of-two slot counts, plus a fixed header. It deliberately ignores
// the transient doubling copy, so it is a floor on what the map retains —
// conservative in Flat-versus-Map comparisons.
func mapBytes(n int) int64 {
	const (
		header       = 48
		bytesPerSlot = 9
	)
	if n == 0 {
		return header
	}
	slots := 8
	for n > slots*7/8 {
		slots *= 2
	}
	return header + int64(slots)*bytesPerSlot
}

// shard is one lock-striped slice of the concurrent Map backend. It is
// padded to a cache line so neighbouring shard mutexes do not false-share
// under contention.
type shard struct {
	mu sync.Mutex
	m  map[statespace.Fingerprint]struct{}
	_  [64 - 16]byte
}

// shardedMap is the concurrent Map backend: the checker's original sharded
// lock-striped visited set. TryInsert is the exploration hot path and takes
// only the single shard lock selected by the fingerprint's low bits.
type shardedMap struct {
	shards []shard
	count  atomic.Int64
}

func newShardedMap() *shardedMap {
	s := &shardedMap{shards: make([]shard, mapShards)}
	for i := range s.shards {
		s.shards[i].m = make(map[statespace.Fingerprint]struct{})
	}
	return s
}

func (s *shardedMap) shard(fp statespace.Fingerprint) *shard {
	return &s.shards[uint64(fp)&(mapShards-1)]
}

func (s *shardedMap) TryInsert(fp statespace.Fingerprint) bool {
	sh := s.shard(fp)
	sh.mu.Lock()
	if _, dup := sh.m[fp]; dup {
		sh.mu.Unlock()
		return false
	}
	sh.m[fp] = struct{}{}
	sh.mu.Unlock()
	s.count.Add(1)
	return true
}

// Len reads a single atomic counter and is cheap enough for per-state cap
// checks.
func (s *shardedMap) Len() int { return int(s.count.Load()) }

// Stats sums the per-shard map model plus the shard array itself, locking
// each shard in turn.
func (s *shardedMap) Stats() Stats {
	st := Stats{Backend: Map.String(), States: s.Len(), Exact: true,
		Bytes: int64(len(s.shards)) * int64(unsafe.Sizeof(shard{}))}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.Bytes += mapBytes(len(sh.m))
		sh.mu.Unlock()
	}
	return st
}

// DumpFingerprints implements Dumper: each shard is walked under its own
// lock, shard-consistent like the striped Flat variant.
func (s *shardedMap) DumpFingerprints(yield func(fp statespace.Fingerprint) error) error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		var err error
		for fp := range sh.m {
			if err = yield(fp); err != nil {
				break
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
