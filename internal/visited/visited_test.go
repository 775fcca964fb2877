package visited

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"verc3/internal/statespace"
)

// mix is the splitmix64 finalizer, a bijection on 64-bit words.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fpOf derives the i-th test fingerprint. mix is a bijection, so distinct i
// yield distinct fingerprints by construction.
func fpOf(i int) statespace.Fingerprint {
	return statespace.Fingerprint(mix(uint64(i) + 1))
}

// TestKindStringParse round-trips every backend name through ParseKind, and
// checks that an unknown name is refused with the list of backends.
func TestKindStringParse(t *testing.T) {
	for _, k := range []Kind{Flat, Spill} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("disk"); err == nil || !strings.Contains(err.Error(), "flat, spill") {
		t.Errorf("ParseKind(disk) = %v, want a refusal listing flat, spill", err)
	}
}

// TestStoreContract checks the Store contract on every backend in both
// flavours: first TryInsert of a fingerprint reports true, duplicates
// report false, Len counts admissions, DumpFingerprints yields exactly the
// admitted set, and the self-report is coherent.
func TestStoreContract(t *testing.T) {
	const n = 5000
	build := map[string]func(Config) Store{
		"sequential": New,
		"concurrent": NewConcurrent,
	}
	for flavour, mk := range build {
		for _, kind := range []Kind{Flat, Spill} {
			t.Run(flavour+"/"+kind.String(), func(t *testing.T) {
				// The spill budget is tiny so this test exercises the disk
				// tier too (n×8 bytes is far beyond 8KiB of RAM).
				s := mk(Config{Kind: kind, SpillMem: 8 << 10, SpillDir: t.TempDir()})
				defer closeIfCloser(t, s)
				for i := 0; i < n; i++ {
					if !s.TryInsert(fpOf(i)) {
						t.Fatalf("first TryInsert(%d) returned false", i)
					}
					if s.TryInsert(fpOf(i)) {
						t.Fatalf("duplicate TryInsert(%d) returned true", i)
					}
				}
				if s.Len() != n {
					t.Fatalf("Len = %d, want %d", s.Len(), n)
				}
				dumped := map[statespace.Fingerprint]bool{}
				if err := s.DumpFingerprints(func(fp statespace.Fingerprint) error {
					dumped[fp] = true
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if !dumped[fpOf(i)] {
						t.Fatalf("DumpFingerprints missed admitted fingerprint %d", i)
					}
				}
				if len(dumped) != n {
					t.Errorf("DumpFingerprints yielded %d distinct fingerprints, want %d", len(dumped), n)
				}
				st := s.Stats()
				if st.Backend != kind.String() || st.States != n || st.Bytes <= 0 {
					t.Errorf("Stats = %+v", st)
				}
			})
		}
	}
}

// closeIfCloser closes stores that own external resources (spill).
func closeIfCloser(t *testing.T, s Store) {
	t.Helper()
	if c, ok := s.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// TestFlatZeroFingerprint pins the sideband handling of the one value the
// open-addressing slots cannot hold.
func TestFlatZeroFingerprint(t *testing.T) {
	for name, s := range map[string]Store{
		"flat":    New(Config{Kind: Flat}),
		"striped": NewConcurrent(Config{Kind: Flat}),
	} {
		if !s.TryInsert(0) {
			t.Errorf("%s: first TryInsert(0) returned false", name)
		}
		if s.TryInsert(0) {
			t.Errorf("%s: duplicate TryInsert(0) returned true", name)
		}
		if s.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, s.Len())
		}
	}
}

// TestFlatMatchesMapOracle is the deterministic differential test behind
// FuzzFlatVsMapOracle: over a duplicate-heavy fingerprint stream, both
// Flat variants must report exactly what a reference Go map reports, call
// by call.
func TestFlatMatchesMapOracle(t *testing.T) {
	stores := map[string]Store{
		"flat":    New(Config{Kind: Flat}),
		"striped": NewConcurrent(Config{Kind: Flat}),
	}
	for name, s := range stores {
		oracle := make(map[statespace.Fingerprint]bool)
		for i := 0; i < 30000; i++ {
			fp := fpOf(i % 2500 * (i%3 + 1)) // revisits with gaps
			want := !oracle[fp]
			oracle[fp] = true
			if got := s.TryInsert(fp); got != want {
				t.Fatalf("%s: step %d fp %x: TryInsert = %v, oracle says %v", name, i, fp, got, want)
			}
		}
		if s.Len() != len(oracle) {
			t.Errorf("%s: Len = %d, oracle has %d", name, s.Len(), len(oracle))
		}
	}
}

// TestFlatGrowth forces multiple doublings and checks no occupant is
// forgotten or duplicated across rehashes, and that the Robin Hood table
// actually runs at the raised 15/16 load cap.
func TestFlatGrowth(t *testing.T) {
	f := newFlat()
	const n = 100000
	for i := 0; i < n; i++ {
		if !f.TryInsert(fpOf(i)) {
			t.Fatalf("lost insert %d", i)
		}
	}
	if f.t.grows == 0 {
		t.Fatal("no growth over 100k inserts")
	}
	if got := len(f.t.slots); got&(got-1) != 0 {
		t.Errorf("slot count %d not a power of two", got)
	}
	if 16*f.t.used > 15*len(f.t.slots) {
		t.Errorf("load %d/%d above the 15/16 cap", f.t.used, len(f.t.slots))
	}
	// 100000 entries fit in 2¹⁷ slots at 15/16 (122880); the old 7/8 cap
	// allowed only 114688, which also happens to fit — the cap is instead
	// pinned by a count in the band (7/8, 15/16]·2¹⁷ below.
	for i := 0; i < n; i++ {
		if f.TryInsert(fpOf(i)) {
			t.Fatalf("occupant %d lost across growth", i)
		}
	}
	if f.Len() != n {
		t.Errorf("Len = %d, want %d", f.Len(), n)
	}

	// 120000 entries sit between 7/8 (114688) and 15/16 (122880) of 2¹⁷
	// slots: the Robin Hood table must hold them without the doubling the
	// old cap would have forced.
	g := newFlat()
	for i := 0; i < 120000; i++ {
		g.TryInsert(fpOf(i))
	}
	if got := len(g.t.slots); got != 1<<17 {
		t.Errorf("slots for 120k entries = %d, want %d (15/16 cap not in effect)", got, 1<<17)
	}
}

// TestFlatRobinHoodInvariant checks the displacement ordering Robin Hood
// insertion maintains: along any occupied probe run, an occupant's
// displacement exceeds its predecessor's by at most one (a fresh home
// resets it to zero). The absence proof in tryInsert — stop when a
// resident travels shorter than the probe — is sound only under this
// invariant.
func TestFlatRobinHoodInvariant(t *testing.T) {
	f := newFlat()
	const n = 50000
	for i := 0; i < n; i++ {
		f.TryInsert(fpOf(i))
	}
	slots := f.t.slots
	mask := len(slots) - 1
	for i, fp := range slots {
		if fp == 0 {
			continue
		}
		prev := slots[(i-1)&mask]
		if prev == 0 {
			continue
		}
		d, dp := dist(fp, i, mask), dist(prev, (i-1)&mask, mask)
		if d > dp+1 {
			t.Fatalf("slot %d: displacement %d after predecessor's %d", i, d, dp)
		}
	}
}

// TestStripePadding pins the cache-line layout of the concurrent variant's
// striped struct: it must be a whole number of 64-byte lines so
// neighbouring locks never false-share, and Stats().Bytes must account the
// full padded struct.
func TestStripePadding(t *testing.T) {
	if sz := unsafe.Sizeof(stripe{}); sz%64 != 0 {
		t.Errorf("stripe size %d is not a multiple of a cache line", sz)
	}
	// An empty striped store's footprint is exactly its stripe array.
	s := newStripedFlat()
	if got, want := s.Stats().Bytes, int64(flatStripes*unsafe.Sizeof(stripe{})); got != want {
		t.Errorf("empty stripedFlat Bytes = %d, want %d", got, want)
	}
}

// TestStripedFlatStatsSinglePass is the regression test for the torn
// mid-run self-report: Stats used to lock each stripe twice — once inside
// Bytes(), once for the grow counters — so a reader racing a growth could
// see a Bytes figure from before the rehash paired with a Grows count
// from after. The single-pass snapshot makes every stripe's contribution
// internally consistent, which this test checks via an invariant that the
// torn read could violate: each growth doubles a table that starts at 32
// slots, so within one coherent snapshot Bytes must cover at least the
// slots implied by the observed growth count (a table that has grown g
// times holds 32·2^g slots). Run with -race while inserts hammer the
// table.
func TestStripedFlatStatsSinglePass(t *testing.T) {
	s := newStripedFlat() // ~1k inserts per stripe: every stripe grows repeatedly
	const n = 1 << 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.TryInsert(fpOf(i))
		}
	}()
	stripeOverhead := int64(len(s.stripes)) * int64(unsafe.Sizeof(stripe{}))
	for {
		st := s.Stats()
		// Growth count g spread over k stripes implies at least
		// k·32·2^ceil(g/k) slots in the snapshot... conservatively: every
		// recorded growth at minimum doubled one 32-slot table once, so
		// bytes must be at least 32·8 per growth beyond the base tables.
		minBytes := stripeOverhead + int64(st.Grows)*32*8
		if st.Bytes < minBytes {
			t.Fatalf("torn snapshot: Bytes=%d below the %d implied by Grows=%d", st.Bytes, minBytes, st.Grows)
		}
		if st.States < 0 || st.States > n {
			t.Fatalf("snapshot States = %d", st.States)
		}
		select {
		case <-done:
			if got := s.Stats(); got.States != n {
				t.Fatalf("final States = %d, want %d", got.States, n)
			}
			return
		default:
		}
	}
}

// concurrentWins races workers over a shared key population and returns
// the total number of TryInsert wins (the -race test for the concurrent
// variants: exactly one winner per fingerprint for exact backends).
func concurrentWins(s Store, workers, keys int) int {
	wins := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if s.TryInsert(fpOf((i*(w+1) + w) % keys)) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range wins {
		total += n
	}
	return total
}

// TestConcurrentExactBackends: under racing insertion of the same
// population, the exact concurrent backends admit each fingerprint exactly
// once.
func TestConcurrentExactBackends(t *testing.T) {
	const (
		workers = 8
		keys    = 20000
	)
	for name, s := range map[string]Store{
		"striped-flat": NewConcurrent(Config{Kind: Flat}),
		// The tiny budget forces the spill backend through flushes and
		// merges mid-race, so the claim also covers disk-resident lookups.
		"spill": NewConcurrent(Config{Kind: Spill, SpillMem: 8 << 10, SpillDir: t.TempDir()}),
	} {
		if total := concurrentWins(s, workers, keys); total != keys {
			t.Errorf("%s: %d wins, want %d (each fingerprint claimed exactly once)", name, total, keys)
		}
		if s.Len() != keys {
			t.Errorf("%s: Len = %d, want %d", name, s.Len(), keys)
		}
		closeIfCloser(t, s)
	}
}

// BenchmarkTryInsert isolates the sequential Flat insert hot path: a fresh
// store per iteration, 64k distinct fingerprints.
func BenchmarkTryInsert(b *testing.B) {
	const n = 1 << 16
	fps := make([]statespace.Fingerprint, n)
	for i := range fps {
		fps[i] = fpOf(i)
	}
	b.Run(Flat.String(), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := New(Config{})
			for _, fp := range fps {
				s.TryInsert(fp)
			}
		}
		b.ReportMetric(float64(n), "inserts/op")
	})
}
