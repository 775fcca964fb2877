package visited

import (
	"encoding/binary"
	"testing"

	"verc3/internal/statespace"
)

// FuzzFlatVsMapOracle is the differential fuzz test for the Flat backends:
// an arbitrary byte string is read as a stream of fingerprints (8-byte
// little-endian words, final partial word zero-padded — so the zero-
// fingerprint sideband is exercised too) and fed to the sequential Flat
// table, the striped concurrent variant, and a reference Go map. Every
// TryInsert verdict must agree with the oracle: insert/dedupe semantics of
// the open-addressing code are identical to a map by construction, not by
// accident of the test corpus.
func FuzzFlatVsMapOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xDEADBEEFCAFE))
	seed := make([]byte, 0, 128)
	for i := 0; i < 8; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, mix(uint64(i)))
		seed = binary.LittleEndian.AppendUint64(seed, mix(uint64(i))) // immediate duplicate
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		flat := New(Config{Kind: Flat})
		striped := NewConcurrent(Config{Kind: Flat})
		oracle := make(map[statespace.Fingerprint]bool)
		for len(data) > 0 {
			var word [8]byte
			n := copy(word[:], data)
			data = data[n:]
			fp := statespace.Fingerprint(binary.LittleEndian.Uint64(word[:]))
			want := !oracle[fp]
			oracle[fp] = true
			if got := flat.TryInsert(fp); got != want {
				t.Fatalf("flat: fp %x: TryInsert = %v, oracle %v", fp, got, want)
			}
			if got := striped.TryInsert(fp); got != want {
				t.Fatalf("striped: fp %x: TryInsert = %v, oracle %v", fp, got, want)
			}
		}
		if flat.Len() != len(oracle) || striped.Len() != len(oracle) {
			t.Fatalf("Len: flat %d, striped %d, oracle %d", flat.Len(), striped.Len(), len(oracle))
		}
	})
}
