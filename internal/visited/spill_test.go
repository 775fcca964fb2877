package visited

import (
	"os"
	"sync"
	"testing"

	"verc3/internal/statespace"
)

// tinySpill builds a spill store with an 8KiB RAM budget rooted in a test
// temp dir — small enough that a few thousand inserts cross the disk tier.
func tinySpill(t *testing.T) *spill {
	t.Helper()
	return newSpill(Config{Kind: Spill, SpillMem: 8 << 10, SpillDir: t.TempDir()})
}

// TestSpillSpillsAndStaysExact drives the store far past its RAM budget
// and checks the headline contract: every fingerprint is admitted exactly
// once whether it currently lives in RAM or in a run file, Len stays
// exact, and the self-report shows real spilled bytes.
func TestSpillSpillsAndStaysExact(t *testing.T) {
	s := tinySpill(t)
	const n = 50000
	for i := 0; i < n; i++ {
		if !s.TryInsert(fpOf(i)) {
			t.Fatalf("first TryInsert(%d) = false", i)
		}
	}
	st := s.Stats()
	if st.SpilledBytes == 0 || st.SpillRuns == 0 {
		t.Fatalf("no spilling at 50k inserts into an 8KiB budget: %+v", st)
	}
	// Every earlier fingerprint — most of them disk-resident by now — must
	// still be rejected as a duplicate.
	for i := 0; i < n; i++ {
		if s.TryInsert(fpOf(i)) {
			t.Fatalf("duplicate TryInsert(%d) = true after spilling", i)
		}
	}
	if s.Len() != n {
		t.Errorf("Len = %d, want %d", s.Len(), n)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("spill error: %v", err)
	}
	// The in-RAM footprint must stay near the budget: tables capped at the
	// budget plus the stripe structs and the fence index (8 bytes per
	// 2KiB spilled).
	if b := s.Stats().Bytes; b > 32<<10 {
		t.Errorf("in-RAM Bytes = %d after 50k inserts, want bounded near the 8KiB budget", b)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestSpillEndLevelMergesToOneRun forces several flushes, then checks the
// level-boundary merge collapses all runs into one deduplicated file with
// the same membership.
func TestSpillEndLevelMergesToOneRun(t *testing.T) {
	s := tinySpill(t)
	const n = 20000
	for i := 0; i < n; i++ {
		s.TryInsert(fpOf(i))
	}
	before := s.Stats()
	if before.SpillRuns < 2 {
		t.Fatalf("want ≥2 runs before the merge, got %d", before.SpillRuns)
	}
	if err := s.EndLevel(); err != nil {
		t.Fatalf("EndLevel: %v", err)
	}
	after := s.Stats()
	if after.SpillRuns != 1 {
		t.Fatalf("runs after merge = %d, want 1", after.SpillRuns)
	}
	if after.SpilledBytes > before.SpilledBytes {
		t.Errorf("merge grew the spill: %d -> %d bytes", before.SpilledBytes, after.SpilledBytes)
	}
	for i := 0; i < n; i++ {
		if s.TryInsert(fpOf(i)) {
			t.Fatalf("duplicate TryInsert(%d) = true after merge", i)
		}
	}
	if s.Len() != n {
		t.Errorf("Len = %d, want %d", s.Len(), n)
	}
	closeIfCloser(t, s)
}

// TestSpillZeroFingerprintAcrossTiers pins the sideband value's journey
// through a flush: admitted once in RAM, found on disk afterwards.
func TestSpillZeroFingerprintAcrossTiers(t *testing.T) {
	s := tinySpill(t)
	if !s.TryInsert(0) {
		t.Fatal("first TryInsert(0) = false")
	}
	for i := 0; i < 20000; i++ { // push 0 out to disk
		s.TryInsert(fpOf(i))
	}
	if s.Stats().SpillRuns == 0 {
		t.Fatal("zero fingerprint never spilled; harness broken")
	}
	if s.TryInsert(0) {
		t.Error("duplicate TryInsert(0) = true after spilling")
	}
	if s.Len() != 20001 {
		t.Errorf("Len = %d, want 20001", s.Len())
	}
	closeIfCloser(t, s)
}

// TestSpillCloseRemovesFiles checks Close deletes the run files and the
// per-run directory it created under the configured parent.
func TestSpillCloseRemovesFiles(t *testing.T) {
	parent := t.TempDir()
	s := newSpill(Config{Kind: Spill, SpillMem: 8 << 10, SpillDir: parent})
	for i := 0; i < 20000; i++ {
		s.TryInsert(fpOf(i))
	}
	if s.Stats().SpillRuns == 0 {
		t.Fatal("nothing spilled; harness broken")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("Close left %d entries under %s", len(entries), parent)
	}
}

// TestSpillConcurrentWithLevelBoundaries races inserters against periodic
// EndLevel merges — the parallel driver's actual access pattern is insert
// storms separated by quiescent merges, but the store must also tolerate
// a merge racing an insert (the structural RWMutex serializes them).
func TestSpillConcurrentWithLevelBoundaries(t *testing.T) {
	const (
		workers = 8
		keys    = 30000
	)
	s := newSpill(Config{Kind: Spill, SpillMem: 8 << 10, SpillDir: t.TempDir()})
	var wg sync.WaitGroup
	wins := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if s.TryInsert(fpOf((i*(w+1) + w) % keys)) {
					wins[w]++
				}
				if w == 0 && i%5000 == 4999 {
					if err := s.EndLevel(); err != nil {
						t.Errorf("EndLevel: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range wins {
		total += n
	}
	if total != keys {
		t.Errorf("wins = %d, want %d (exactly one claim per fingerprint)", total, keys)
	}
	if s.Len() != keys {
		t.Errorf("Len = %d, want %d", s.Len(), keys)
	}
	closeIfCloser(t, s)
}

// TestSpillMatchesMapOracle is the deterministic differential test behind
// FuzzSpillVsMapOracle: a duplicate-heavy stream through a budget small
// enough to spill must report exactly what a reference map reports.
func TestSpillMatchesMapOracle(t *testing.T) {
	s := tinySpill(t)
	oracle := make(map[statespace.Fingerprint]bool)
	for i := 0; i < 30000; i++ {
		fp := fpOf(i % 2500 * (i%3 + 1)) // revisits with gaps
		want := !oracle[fp]
		oracle[fp] = true
		if got := s.TryInsert(fp); got != want {
			t.Fatalf("step %d fp %x: TryInsert = %v, oracle says %v", i, fp, got, want)
		}
		if i%4096 == 4095 {
			if err := s.EndLevel(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Len() != len(oracle) {
		t.Errorf("Len = %d, oracle has %d", s.Len(), len(oracle))
	}
	closeIfCloser(t, s)
}
